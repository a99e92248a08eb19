package main

import (
	"io"
	"os"
	"testing"
)

// TestExpectedOutput runs the example and compares what it prints with
// expected.txt byte for byte: the example is deterministic.
func TestExpectedOutput(t *testing.T) {
	want, err := os.ReadFile("expected.txt")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		got <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	main()
	w.Close()
	if out := <-got; string(out) != string(want) {
		t.Errorf("output differs from expected.txt:\n%s", out)
	}
}
