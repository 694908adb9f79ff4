package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// deprecatedSymbols collects every top-level name of the module, outside
// bench/, whose doc comment carries a "Deprecated:" paragraph.
func deprecatedSymbols(t *testing.T, fset *token.FileSet) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != ".." && (strings.HasPrefix(name, ".") || name == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		mark := func(doc *ast.CommentGroup, names ...*ast.Ident) {
			if doc == nil || !strings.Contains(doc.Text(), "Deprecated:") {
				return
			}
			for _, n := range names {
				out[n.Name] = path
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				mark(d.Doc, d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						mark(s.Doc, s.Name)
						mark(d.Doc, s.Name)
					case *ast.ValueSpec:
						mark(s.Doc, s.Names...)
						mark(d.Doc, s.Names...)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The benchmark must outlive the clean-ups the roadmap plans: it may not
// lean on testbed, the trafficgen bridge, the cmd tools, the scheduler and
// sync-mode options, the closure event API or any deprecated symbol.
// Scenarios stay on the public surface: only drivers.go, which times each
// layer package through its own entry points, may import minions/internal,
// apart from scenario.go's topo.FatTreeBuild.
func TestImportGuard(t *testing.T) {
	fset := token.NewFileSet()
	deprecated := deprecatedSymbols(t, fset)
	bannedImports := []string{"minions/testbed", "minions/internal/trafficgen", "minions/cmd"}
	bannedNames := map[string]string{
		"WithScheduler": "scheduler option", "WithSyncMode": "sync-mode option",
		"After": "closure event API", "Every": "closure event API",
	}
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			for _, b := range bannedImports {
				if p == b || strings.HasPrefix(p, b+"/") {
					t.Errorf("%s imports %s", path, p)
				}
			}
			if strings.HasPrefix(p, "minions/internal/") && path != "drivers.go" &&
				!(path == "scenario.go" && p == "minions/internal/topo") {
				t.Errorf("%s imports %s: scenarios are built on the public surface", path, p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			pos := fset.Position(sel.Pos())
			if why, bad := bannedNames[name]; bad {
				t.Errorf("%s: .%s (%s)", pos, name, why)
			}
			// tpp.At is the packet-memory operand; any other .At would be
			// Engine.At, the closure event API.
			x, isIdent := sel.X.(*ast.Ident)
			if name == "At" && !(isIdent && x.Name == "tpp") {
				t.Errorf("%s: .At (closure event API)", pos)
			}
			if isIdent && x.Name == "topo" && name != "FatTreeBuild" {
				t.Errorf("%s: topo.%s: internal/topo is allowed for FatTreeBuild only", pos, name)
			}
			if from, dep := deprecated[name]; dep {
				t.Errorf("%s: .%s is deprecated in %s", pos, name, from)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 8 {
		t.Fatalf("guard saw only %d bench files; it is not looking at the package", files)
	}
}
