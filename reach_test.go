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

// reachAllow maps an exported function or method that nothing else names
// (its label in TestExportedReachable's report) to the reason it stays.
var reachAllow = map[string]string{}

// TestExportedReachable fails on an exported top-level function or
// method declared in a non-test file under internal/ whose name no .go
// file of the repository uses, tests and cmd/k23bench included. A
// function declaration does not name itself or its namesakes; any other
// identifier does, in the declaring file too. The match is by name only,
// so the check catches code that nothing names at all.
func TestExportedReachable(t *testing.T) {
	type decl struct{ label, name string }
	var decls []decl
	named := map[string]bool{}
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
		path = filepath.ToSlash(path)
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if fd.Name.IsExported() && strings.HasPrefix(path, "internal/") && !strings.HasSuffix(path, "_test.go") {
				label := filepath.Dir(path) + "." + fd.Name.Name
				if fd.Recv != nil {
					label = filepath.Dir(path) + ".(" + recvType(fd.Recv.List[0].Type) + ")." + fd.Name.Name
				}
				decls = append(decls, decl{label, fd.Name.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unnamed []string
	for _, d := range decls {
		if !named[d.name] && reachAllow[d.label] == "" {
			unnamed = append(unnamed, d.label)
		}
	}
	sort.Strings(unnamed)
	for _, l := range unnamed {
		t.Errorf("%s: exported, but nothing names it", l)
	}
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
