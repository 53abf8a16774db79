package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions that keep no caller in a
// non-test file, each with the reason it stays. Keys are
// "<package>.<Func>", the package as its import path without the
// leading "repro/" ("repro" itself for the root package).
var exportAllowlist = map[string]string{
	"internal/raslog.ParseLine":         "test reference: the string parser ParseLineBytes must match",
	"internal/raslog.ParseFacility":     "test reference: ParseLine's facility parser",
	"internal/raslog.ParseSeverity":     "test reference: ParseLine's severity parser",
	"internal/exp.QuickSuite":           "table and ablation benchmarks in the root bench_test.go",
	"internal/engine.NewWindowTuner":    "adaptive-window ablation in the root bench_test.go",
	"internal/eval.LeadTimes":           "offline reference for the planned live lead-time accounting (ROADMAP.md)",
	"internal/eval.MeanPrecisionRecall": "offline reference for the planned live precision and recall (ROADMAP.md)",
	"repro.ReadLog":                     "public API: code outside the module cannot import internal/raslog's reader",
	"repro.WriteLog":                    "public API: code outside the module cannot import internal/raslog's writer",
	"repro.NewCatalog":                  "public API: code outside the module cannot import internal/preprocess's Table 3 catalog",
	"repro.Tag":                         "public API: code outside the module cannot import internal/preprocess's categorizer",
}

// TestExportedFuncsHaveCallers pins the library surface: every exported
// top-level function of package repro and of the packages under
// internal/ is referenced, outside its own declaration, from at least
// one non-test Go file of the repository (bench/ included), or is on
// exportAllowlist. An allowlist entry that names no function, or whose
// function has gained a caller, fails too, so the list cannot go stale.
//
// The check reads source with go/parser: a bare identifier refers to its
// own package, a qualified one to the package its import names.
func TestExportedFuncsHaveCallers(t *testing.T) {
	declared := map[string]string{} // key -> declaration position
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(p))
		if pkg == "." {
			pkg = "repro"
		}
		if pkg == "repro" || strings.HasPrefix(pkg, "internal/") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
					declared[pkg+"."+fn.Name.Name] = fset.Position(fn.Pos()).String()
				}
			}
		}
		collectRefs(f, pkg, used)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no exported function; the test must run at the module root")
	}

	var missing []string
	for key, pos := range declared {
		if !used[key] && exportAllowlist[key] == "" {
			missing = append(missing, key+" ("+pos+")")
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("exported function %s has no caller outside tests", m)
	}
	for key := range exportAllowlist {
		if _, ok := declared[key]; !ok {
			t.Errorf("allowlist entry %s names no exported function", key)
		} else if used[key] {
			t.Errorf("allowlist entry %s has a caller outside tests now; drop the entry", key)
		}
	}
}

// collectRefs marks in used every "<package>.<Func>" that file f of
// package pkg names. A function's own name, and the recursive calls in
// its body, do not count.
func collectRefs(f *ast.File, pkg string, used map[string]bool) {
	imports := map[string]string{} // local name -> package key
	for _, imp := range f.Imports {
		ip, _ := strconv.Unquote(imp.Path.Value)
		key, ok := strings.CutPrefix(ip, "repro/")
		if ip == "repro" {
			key, ok = "repro", true
		}
		if !ok {
			continue
		}
		local := key[strings.LastIndex(key, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = key
	}
	for _, decl := range f.Decls {
		self := func(*ast.Ident) bool { return false }
		if fn, ok := decl.(*ast.FuncDecl); ok {
			self = func(id *ast.Ident) bool {
				return id == fn.Name || fn.Recv == nil && id.Name == fn.Name.Name
			}
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if key, ok := imports[x.Name]; ok {
						used[key+"."+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false // n.Sel names a field or method
			case *ast.Ident:
				if !self(n) {
					used[pkg+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(decl, visit)
	}
}
