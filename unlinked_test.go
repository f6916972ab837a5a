package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestNoUnlinkedCode: every non-test function under internal/ is linked
// into one of the module's binaries (cmd/..., examples/..., benchmark),
// or another package's tests name it (an oracle or a fixture such as
// stokes.Assemble), or such a function calls it. Code that only its own
// package's tests reach belongs in a _test.go file, and code nothing
// reaches is deleted. The binaries are built with inlining off, so a
// function the linker kept appears in `go tool nm` under its own name.
func TestNoUnlinkedCode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of the module")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, "./cmd/...", "./examples/...", "./benchmark")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	linked := linkedSymbols(t, bin)

	fset := token.NewFileSet()
	type decl struct {
		dir, sym, alt, name, sel string
		body                     *ast.BlockStmt
	}
	var decls []decl
	// Selectors test files name -> the directories of those files. A
	// package-level function is named as pkg.Name, a method as x.Name.
	named := map[string]map[string]bool{}
	name := func(sel, dir string) {
		if named[sel] == nil {
			named[sel] = map[string]bool{}
		}
		named[sel][dir] = true
	}
	generated := regexp.MustCompile(`(?m)^//go:build ignore$`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if strings.HasSuffix(path, "_test.go") {
			ast.Inspect(f, func(n ast.Node) bool {
				if s, ok := n.(*ast.SelectorExpr); ok {
					name(s.Sel.Name, dir)
					if x, ok := s.X.(*ast.Ident); ok {
						name(x.Name+"."+s.Sel.Name, dir)
					}
				}
				return true
			})
			return nil
		}
		if !strings.HasPrefix(path, "internal/") || generated.Match(src) {
			return nil
		}
		pkg := "rhea/" + filepath.ToSlash(dir) + "."
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" {
				continue
			}
			sym := pkg + fn.Name.Name
			alt, sel := sym, f.Name.Name+"."+fn.Name.Name
			if fn.Recv != nil {
				sel = fn.Name.Name
				recv := fn.Recv.List[0].Type
				ptr := false
				if star, ok := recv.(*ast.StarExpr); ok {
					recv, ptr = star.X, true
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				typ := recv.(*ast.Ident).Name
				sym = pkg + "(*" + typ + ")." + fn.Name.Name
				alt = sym
				if !ptr {
					alt = pkg + typ + "." + fn.Name.Name
				}
			}
			decls = append(decls, decl{dir, sym, alt, fn.Name.Name, sel, fn.Body})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Excused: linked, or named by a test outside the function's own
	// directory; then, to a fixpoint, whatever an excused function's body
	// names in its own package.
	excused := make([]bool, len(decls))
	reach := map[string]bool{} // dir + "." + name reached from an excused body
	for changed := true; changed; {
		changed = false
		for i, d := range decls {
			if excused[i] {
				continue
			}
			ok := linked[d.sym] || linked[d.alt] || reach[d.dir+"."+d.name]
			for dir := range named[d.sel] {
				ok = ok || dir != d.dir
			}
			if !ok {
				continue
			}
			excused[i], changed = true, true
			if d.body != nil {
				ast.Inspect(d.body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						reach[d.dir+"."+n.Name] = true
					case *ast.SelectorExpr:
						reach[d.dir+"."+n.Sel.Name] = true
					}
					return true
				})
			}
		}
	}
	var bad []string
	for i, d := range decls {
		if !excused[i] {
			bad = append(bad, d.sym)
		}
	}
	sort.Strings(bad)
	for _, s := range bad {
		t.Errorf("%s is linked by no binary and named by no other package's test: delete it, or move it into a _test.go file", s)
	}
}

// linkedSymbols returns the text symbols of package rhea/internal/... in
// every binary in dir, with type arguments stripped.
func linkedSymbols(t *testing.T, dir string) map[string]bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	typeArgs := regexp.MustCompile(`\[[^\[\]]*\]`)
	linked := map[string]bool{}
	for _, e := range entries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") || !strings.HasPrefix(f[2], "rhea/internal/") {
				continue
			}
			// An assembly function's body is linked as name.abi0.
			sym := strings.TrimSuffix(f[2], ".abi0")
			for s := typeArgs.ReplaceAllString(sym, ""); s != sym; s = typeArgs.ReplaceAllString(sym, "") {
				sym = s
			}
			linked[sym] = true
		}
	}
	return linked
}
