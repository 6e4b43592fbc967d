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
// non-test file, and every exported field of an exported struct type,
// one per line and sorted, must equal testdata/api.txt. Adding or
// removing an entry point or a field therefore changes a reviewed file,
// also when the field is declared in an internal package behind an
// alias. On a mismatch the test prints the file it wants.
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
// "var V", and "field T.F" for each exported field of an exported
// struct type T, following an alias T = pkg.U into pkg's source.
func apiSurface(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, f := range parseDir(t, ".") {
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
							for _, field := range structFields(t, f, s) {
								out = append(out, "field "+s.Name.Name+"."+field)
							}
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

// parseDir parses the non-test Go files of dir.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// structFields returns the exported field names of the struct type s
// declared in file f. An alias of another package's type (pkg.U, pkg
// imported by f from this module) is followed into that package's
// source; any other type has no fields.
func structFields(t *testing.T, f *ast.File, s *ast.TypeSpec) []string {
	t.Helper()
	if st, ok := s.Type.(*ast.StructType); ok {
		var out []string
		for _, field := range st.Fields.List {
			for _, n := range field.Names {
				if n.IsExported() {
					out = append(out, n.Name)
				}
			}
		}
		return out
	}
	sel, ok := s.Type.(*ast.SelectorExpr)
	if !ok || !s.Assign.IsValid() {
		return nil
	}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		dir, ok := strings.CutPrefix(path, "rpm/")
		if !ok || filepath.Base(path) != sel.X.(*ast.Ident).Name {
			continue
		}
		for _, pf := range parseDir(t, dir) {
			for _, decl := range pf.Decls {
				if d, ok := decl.(*ast.GenDecl); ok && d.Tok == token.TYPE {
					for _, spec := range d.Specs {
						if ts := spec.(*ast.TypeSpec); ts.Name.Name == sel.Sel.Name {
							return structFields(t, pf, ts)
						}
					}
				}
			}
		}
	}
	return nil
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
