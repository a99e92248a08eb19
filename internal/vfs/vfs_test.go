package vfs

import (
	"testing"
	"testing/quick"
)

func TestWriteReadFile(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a/b/c.txt", []byte("hello"), ModeRW); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/a/b/c.txt")
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if !fs.Exists("/a/b/c.txt") || !fs.Exists("/a/b") || !fs.IsDir("/a") {
		t.Fatal("intermediate directories missing")
	}
	if fs.IsDir("/a/b/c.txt") {
		t.Fatal("file reported as dir")
	}
}

func TestReadMissing(t *testing.T) {
	fs := New()
	if _, err := fs.ReadFile("/nope"); err != ErrNotExist {
		t.Fatalf("err = %v", err)
	}
}

func TestAppend(t *testing.T) {
	fs := New()
	if err := fs.Append("/log", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/log", []byte("b")); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/log")
	if string(got) != "ab" {
		t.Fatalf("append result %q", got)
	}
}

func TestOverwriteReplaces(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/f", []byte("old-content"), ModeRW)
	_ = fs.WriteFile("/f", []byte("new"), ModeRW)
	got, _ := fs.ReadFile("/f")
	if string(got) != "new" {
		t.Fatalf("got %q", got)
	}
}

func TestImmutableBlocksWrites(t *testing.T) {
	// The chattr +i analogue protecting K23's offline logs (§5.3).
	fs := New()
	_ = fs.WriteFile("/logs/app.log", []byte("site,1\n"), ModeRW)
	if err := fs.SetImmutable("/logs", true); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/logs/app.log", []byte("evil"), ModeRW); err != ErrImmutable {
		t.Fatalf("overwrite err = %v", err)
	}
	if err := fs.Append("/logs/app.log", []byte("evil")); err != ErrImmutable {
		t.Fatalf("append err = %v", err)
	}
	if err := fs.Unlink("/logs/app.log"); err != ErrImmutable {
		t.Fatalf("unlink err = %v", err)
	}
	if err := fs.WriteFile("/logs/new.log", []byte("x"), ModeRW); err != ErrImmutable {
		t.Fatalf("create-in-immutable-dir err = %v", err)
	}
	if !fs.IsImmutable("/logs") {
		t.Fatal("IsImmutable = false")
	}
	// Unsealing restores writability.
	if err := fs.SetImmutable("/logs", false); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/logs/app.log", []byte("more")); err != nil {
		t.Fatalf("append after unseal: %v", err)
	}
}

func TestUnlinkAndReadDir(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/d/x", nil, ModeRW)
	_ = fs.WriteFile("/d/y", nil, ModeRW)
	names, err := fs.readDir("/d")
	if err != nil || len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("readDir = %v, %v", names, err)
	}
	if err := fs.Unlink("/d/x"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d/x") {
		t.Fatal("file survives unlink")
	}
	if err := fs.Unlink("/d/x"); err != ErrNotExist {
		t.Fatalf("double unlink err = %v", err)
	}
}

func TestChmodAndMode(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/f", []byte("x"), ModeRW)
	if err := fs.Chmod("/f", ModeRead); err != nil {
		t.Fatal(err)
	}
	m, err := fs.Mode("/f")
	if err != nil || m != ModeRead {
		t.Fatalf("Mode = %v, %v", m, err)
	}
}

func TestSynthetic(t *testing.T) {
	fs := New()
	calls := 0
	fs.RegisterSynthetic("/proc/1/maps", func() ([]byte, error) {
		calls++
		return []byte("dynamic"), nil
	})
	if !fs.Exists("/proc/1/maps") {
		t.Fatal("synthetic file invisible")
	}
	got, err := fs.ReadFile("/proc/1/maps")
	if err != nil || string(got) != "dynamic" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	_, _ = fs.ReadFile("/proc/1/maps")
	if calls != 2 {
		t.Fatalf("generator called %d times, want per-read", calls)
	}
	fs.UnregisterSynthetic("/proc/1/maps")
	if fs.Exists("/proc/1/maps") {
		t.Fatal("synthetic survives unregister")
	}
}

func TestPathNormalization(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/a//b/../b/f.txt", []byte("x"), ModeRW)
	if !fs.Exists("/a/b/f.txt") {
		t.Fatal("path not normalized")
	}
	got, err := fs.ReadFile("a/b/f.txt") // relative resolves from root
	if err != nil || string(got) != "x" {
		t.Fatalf("relative read = %q, %v", got, err)
	}
}

func TestDirErrors(t *testing.T) {
	fs := New()
	_ = fs.MkdirAll("/d/sub")
	if _, err := fs.ReadFile("/d"); err != ErrIsDir {
		t.Fatalf("read dir err = %v", err)
	}
	if err := fs.Unlink("/d"); err != ErrIsDir {
		t.Fatalf("unlink non-empty dir err = %v", err)
	}
	if _, err := fs.readDir("/d/sub"); err != nil {
		t.Fatal(err)
	}
	_ = fs.WriteFile("/file", nil, ModeRW)
	if err := fs.MkdirAll("/file/sub"); err != ErrNotDir {
		t.Fatalf("mkdir through file err = %v", err)
	}
}

func TestNoReadPermission(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/secret", []byte("x"), ModeWrite)
	if _, err := fs.ReadFile("/secret"); err != ErrPerm {
		t.Fatalf("err = %v", err)
	}
}

// Property: WriteFile/ReadFile round-trips arbitrary content under
// arbitrary (cleaned) names.
func TestQuickRoundTrip(t *testing.T) {
	fs := New()
	f := func(name string, content []byte) bool {
		if name == "" {
			return true
		}
		// Keep names to a sane charset; path cleaning is tested above.
		for _, r := range name {
			if r == '/' || r == 0 || r == '.' {
				return true
			}
		}
		p := "/q/" + name
		if err := fs.WriteFile(p, content, ModeRW); err != nil {
			return false
		}
		got, err := fs.ReadFile(p)
		if err != nil {
			return false
		}
		return string(got) == string(content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
