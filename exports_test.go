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

// exportAllowlist names the exported functions and methods that keep no
// caller in a non-test file, each with the reason it stays. Keys are
// "<package>.<Func>" or "<package>.<Type>.<Method>", the package as its
// import path without the leading "repro/" ("repro" itself for the root
// package).
var exportAllowlist = map[string]string{
	"internal/raslog.ParseLine":                          "test reference: the string parser ParseLineBytes must match",
	"internal/raslog.ParseFacility":                      "test reference: ParseLine's facility parser",
	"internal/raslog.ParseSeverity":                      "test reference: ParseLine's severity parser",
	"internal/exp.QuickSuite":                            "table and ablation benchmarks in the root bench_test.go",
	"internal/eval.LeadTimes":                            "offline reference for the planned live lead-time accounting (ROADMAP.md)",
	"internal/eval.MeanPrecisionRecall":                  "offline reference for the planned live precision and recall (ROADMAP.md)",
	"internal/bgsim.Topology.MidplaneOfChip":             "test reference: the inverse TestMidplaneOfChipAndRange checks ChipRange against",
	"internal/fleet.Registry.Evict":                      "test reference: fleet tests evict a chosen tenant to pin reactivation; the daemon evicts through EvictIdle and MaxActive",
	"internal/fleet.Registry.Limiter":                    "test reference: TestSharedRetrainLimiter reads the limiter the tenants share",
	"internal/obsv.Histogram.Sum":                        "test reference: TestHistogramExposition checks the observed sum",
	"internal/persist.Store.Followers":                   "test reference: TestFollowerTTLExpiry reads the registered follower acks",
	"internal/preprocess.Catalog.FatalIDs":               "test reference: the catalog and generator tests enumerate the fatal classes through it",
	"internal/preprocess.IncrementalFilter.ResidentKeys": "test reference: TestIncrementalBoundedState bounds the filter's resident keys",
	"internal/raslog.HintMisses":                         "test reference: TestDaemonPathsStampEvents pins that no daemon path falls back to a lookup",
	"internal/raslog.Log.WeekSlice":                      "test reference: stream tests feed the log a week per batch",
	"internal/raslog.Log.CountByFacility":                "test reference: TestSDSCHasNoMonitorEvents counts facilities through it",
	"internal/stream.Service.Ingest":                     "test reference: the one-event IngestBatch the stream tests feed through",
	"repro.ReadLog":                                      "public API: code outside the module cannot import internal/raslog's reader",
	"repro.WriteLog":                                     "public API: code outside the module cannot import internal/raslog's writer",
	"repro.NewCatalog":                                   "public API: code outside the module cannot import internal/preprocess's Table 3 catalog",
	"repro.Tag":                                          "public API: code outside the module cannot import internal/preprocess's categorizer",
}

// TestExportedFuncsHaveCallers pins the library surface: every exported
// top-level function and every exported method of package repro and of
// the packages under internal/ is referenced from at least one non-test
// Go file of the repository (bench/ included), or is on exportAllowlist.
// An allowlist entry that names nothing declared, or whose function or
// method has gained a caller, fails too, so the list cannot go stale.
//
// The check reads source with go/parser. For a function, a bare
// identifier refers to its own package and a qualified one to the
// package its import names; its own declaration does not count. A method
// counts as called when any selector x.Name names it, whatever x is:
// without a type checker that can only over-count callers, never report
// a called method as uncalled.
func TestExportedFuncsHaveCallers(t *testing.T) {
	declared := map[string]string{} // key -> declaration position
	methods := map[string]string{}  // method key -> method name
	used := map[string]bool{}
	selected := map[string]bool{} // names that follow a "." in a selector
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
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				key := pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					key = pkg + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
					methods[key] = fn.Name.Name
				}
				declared[key] = fset.Position(fn.Pos()).String()
			}
		}
		collectRefs(f, pkg, used, selected)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == len(methods) || len(methods) == 0 {
		t.Fatal("found no exported function or method; the test must run at the module root")
	}
	called := func(key string) bool {
		if name, ok := methods[key]; ok {
			return selected[name]
		}
		return used[key]
	}

	var missing []string
	for key, pos := range declared {
		if !called(key) && exportAllowlist[key] == "" {
			missing = append(missing, key+" ("+pos+")")
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("exported %s has no caller outside tests", m)
	}
	for key := range exportAllowlist {
		if _, ok := declared[key]; !ok {
			t.Errorf("allowlist entry %s names no exported function or method", key)
		} else if called(key) {
			t.Errorf("allowlist entry %s has a caller outside tests now; drop the entry", key)
		}
	}
}

// recvType names a method's receiver type: T for T, *T, T[P] and *T[P].
func recvType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// collectRefs marks in used every "<package>.<Func>" that file f of
// package pkg names, and in selected every name that f selects (x.Name).
// A function's own name, and the recursive calls in its body, do not
// count in used.
func collectRefs(f *ast.File, pkg string, used, selected map[string]bool) {
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
				selected[n.Sel.Name] = true
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
