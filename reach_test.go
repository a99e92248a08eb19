package k23_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// rrtestReason is why internal/rr/rrtest's functions stay exported.
const rrtestReason = "test-support package: the record/replay equivalence battery, run by its battery_test.go"

// reachAllow maps an exported function or method that no other non-test
// file names (its label in TestExportedReachable's report) to the reason
// it stays.
var reachAllow = map[string]string{
	"internal/asm.(*SectionBuilder).MovImm":  "the assembler's 64-bit immediate load: kernel and cpu tests build guests with constants wider than MovImm32 takes",
	"internal/canon.Seal":                    "builds sealed artifacts by hand for the parser tests and fuzz seeds of canon, obsv, probe, audit and obsvcheck",
	"internal/image.(*Image).SortedSymbols":  "test oracle: the stable symbol order the image pins hash (libc, interposer and pitfall images)",
	"internal/image.(*Registry).Paths":       "test oracle: TestImagesImmutable hashes every registered image",
	"internal/kernel.(*Kernel).StateHash":    "test oracle: the whole-kernel state hash the kernel, checkpoint and slice-cut tests compare",
	"internal/loader.(*Loader).GlobalSymbol": "test oracle: resolves guest symbols for the kernel and loader tests that read or patch guest memory",
	"internal/rr/rrtest.AppSpecs":            rrtestReason,
	"internal/rr/rrtest.Battery":             rrtestReason,
	"internal/rr/rrtest.SubtestName":         rrtestReason,
}

// TestExportedReachable fails on an exported top-level function or
// method declared in a non-test file under internal/ whose name no other
// non-test .go file of the repository uses, cmd/k23bench included: code
// that only tests reach, or that only its own file calls, is deleted,
// moved into the tests or unexported. A function declaration does not
// name itself or its namesakes; any other identifier does. The match is
// by name only. It also fails on a reachAllow entry for a function the
// rule does not flag, so no entry outlives its function or its need.
func TestExportedReachable(t *testing.T) {
	type decl struct{ path, label, name string }
	var decls []decl
	named := map[string]map[string]bool{} // name -> non-test files naming it
	walkGo(t, func(path string, f *ast.File) {
		test := strings.HasSuffix(path, "_test.go")
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if fd.Name.IsExported() && strings.HasPrefix(path, "internal/") && !test {
				decls = append(decls, decl{path, funcLabel(path, fd), fd.Name.Name})
			}
		}
		if test {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				if named[id.Name] == nil {
					named[id.Name] = map[string]bool{}
				}
				named[id.Name][path] = true
			}
			return true
		})
	})
	var unnamed []string
	flagged := map[string]bool{}
	for _, d := range decls {
		if files := named[d.name]; len(files) == 0 || len(files) == 1 && files[d.path] {
			flagged[d.label] = true
			if reachAllow[d.label] == "" {
				unnamed = append(unnamed, d.label)
			}
		}
	}
	sort.Strings(unnamed)
	for _, l := range unnamed {
		t.Errorf("%s: exported, but no other non-test file names it", l)
	}
	for l := range reachAllow {
		if !flagged[l] {
			t.Errorf("reachAllow: stale entry %s: no exported function the rule flags", l)
		}
	}
}

// clockAllow maps a function (its label in TestHostClockConfined's
// report) that may read the host clock to the reason it does.
var clockAllow = map[string]string{
	"internal/fleet.Run":        "Report.Wall, the batch's host time, which cmd/k23bench reads",
	"internal/fleet.runMachine": "Result.Wall, each machine's host time",
}

// TestHostClockConfined fails on a call of time.Now or time.Since in a
// non-test file outside cmd/k23bench, unless clockAllow names its
// function, and on a clockAllow entry whose function reads no clock. Host time is measured by cmd/k23bench and by go test
// -bench; everything else the repository prints is simulated, so it
// can be goldened or compared with cmp.
func TestHostClockConfined(t *testing.T) {
	read := map[string]bool{}
	walkGo(t, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "cmd/k23bench/") {
			return
		}
		for _, dd := range f.Decls {
			label := path
			if fd, ok := dd.(*ast.FuncDecl); ok {
				label = funcLabel(path, fd)
			}
			ast.Inspect(dd, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "time" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
					read[label] = true
					if clockAllow[label] == "" {
						t.Errorf("%s: reads the host clock (time.%s)", label, sel.Sel.Name)
					}
				}
				return true
			})
		}
	})
	for l := range clockAllow {
		if !read[l] {
			t.Errorf("clockAllow: stale entry %s: no such function reads the host clock", l)
		}
	}
}

// walkGo parses every .go file of the repository, outside directories
// whose names begin with a dot, and calls fn with its slash path.
func walkGo(t *testing.T, fn func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// funcLabel names a function or method declared in the file at path:
// dir.Name or dir.(T).Name.
func funcLabel(path string, fd *ast.FuncDecl) string {
	if fd.Recv != nil {
		return filepath.Dir(path) + ".(" + recvType(fd.Recv.List[0].Type) + ")." + fd.Name.Name
	}
	return filepath.Dir(path) + "." + fd.Name.Name
}

// recvType renders a method receiver's type: T or *T.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
