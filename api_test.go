package rpm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestAPISurface pins the package's exported surface across commits:
// every exported func, method, type, const and var declared in a
// non-test file, one per line and sorted, must equal
// testdata/api.txt. Adding or removing an entry point therefore changes
// a reviewed file. On a mismatch the test prints the file it wants.
func TestAPISurface(t *testing.T) {
	got := strings.Join(apiSurface(t), "\n") + "\n"
	want, err := os.ReadFile("testdata/api.txt")
	if err != nil {
		t.Fatalf("%v\nwant testdata/api.txt to read:\n%s", err, got)
	}
	if string(want) != got {
		t.Fatalf("exported surface differs from testdata/api.txt; the current surface is:\n%s", got)
	}
}

// apiSurface lists the exported declarations of the package's non-test
// files, sorted: "func F", "method (*T).M", "type T", "const C",
// "var V".
func apiSurface(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					out = append(out, "func "+d.Name.Name)
					continue
				}
				if recv, ok := receiverName(d.Recv.List[0].Type); ok {
					out = append(out, "method "+recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							out = append(out, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								out = append(out, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// receiverName renders a method receiver as "(T)" or "(*T)", reporting
// false for a receiver whose type is unexported.
func receiverName(expr ast.Expr) (string, bool) {
	ptr := ""
	if star, ok := expr.(*ast.StarExpr); ok {
		ptr, expr = "*", star.X
	}
	id, ok := expr.(*ast.Ident)
	if !ok || !id.IsExported() {
		return "", false
	}
	return "(" + ptr + id.Name + ")", true
}
