package stream

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/learner"
	"repro/internal/learner/incr"
	"repro/internal/meta"
	"repro/internal/persist"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// impurities lists what the core must not contain: anything that starts
// a goroutine, touches a channel, takes a lock, reads the wall clock or
// arms a timer, or reaches the file system. Each entry is
// "<file>:<line>: <what>". Syntax only: a channel reached through a
// field whose type is declared elsewhere would need the type checker,
// but the core declares every type it holds.
func impurities(fset *token.FileSet, f *ast.File) []string {
	var out []string
	add := func(n ast.Node, what string) {
		out = append(out, fset.Position(n.Pos()).String()+": "+what)
	}
	timeImport := ""
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		switch path {
		case "sync", "sync/atomic", "os":
			add(imp, "imports "+path)
		case "time":
			timeImport = "time"
			if imp.Name != nil {
				timeImport = imp.Name.Name
			}
		}
	}
	clock := map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true,
		"After": true, "AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			add(n, "go statement")
		case *ast.ChanType:
			add(n, "channel type")
		case *ast.SendStmt:
			add(n, "channel send")
		case *ast.SelectStmt:
			add(n, "select statement")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				add(n, "channel receive")
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
				add(n, "channel close")
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && timeImport != "" && x.Name == timeImport && clock[n.Sel.Name] {
				add(n, "time."+n.Sel.Name)
			}
		}
		return true
	})
	return out
}

// TestCoreIsPure pins the core's contract (core.go): no goroutine,
// channel, lock, wall clock, timer or file system. Its seeds check that
// each kind of impurity is caught.
func TestCoreIsPure(t *testing.T) {
	src, err := os.ReadFile("core.go")
	if err != nil {
		t.Fatal(err)
	}
	parse := func(src string) []string {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "core.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return impurities(fset, f)
	}
	if bad := parse(string(src)); len(bad) > 0 {
		t.Errorf("core.go must hold no goroutine, channel, lock, clock or file access:\n%s", strings.Join(bad, "\n"))
	}
	const head = "package stream\n\n"
	for _, seed := range []string{
		`import "sync"` + "\n",
		`import "sync/atomic"` + "\n",
		`import "os"` + "\n",
		`import "time"` + "\nfunc f() { _ = time.Now() }\n",
		`import clock "time"` + "\nfunc f() { _ = clock.Since(clock.Time{}) }\n",
		`import "time"` + "\nfunc f() { time.NewTimer(0) }\n",
		"func f() { go func() {}() }\n",
		"type t struct{ c chan int }\n",
		"func f() { select {} }\n",
		"func f(c any) { _ = <-c }\n",
		"func f(c any) { c <- 1 }\n",
		"func f(c any) { close(c) }\n",
	} {
		if bad := parse(head + seed); len(bad) == 0 {
			t.Errorf("impurity not caught:\n%s", seed)
		}
	}
}

// TestCoreFromASlice drives a bare core on the test goroutine from a
// plain slice: the events and install marks a live run logged, with the
// finished passes taken from a queue its fake pass start fills by
// training on the spot. It must end where the live service — its trainer
// stalled, so its passes install batches after their boundaries — ended.
func TestCoreFromASlice(t *testing.T) {
	l := genLog(t, 31, 8)
	dir := t.TempDir()
	live, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	live.store.RetainFollower("slice", 0) // keep every segment from pruning
	var acked atomic.Int64
	fed := make(chan struct{})
	live.trainPass = func(ml *meta.MetaLearner, repo *meta.Repository, st *incr.State, view []preprocess.TaggedEvent, from, at int64, p learner.Params) (engine.Retraining, error) {
		for until := acked.Load() + 3; acked.Load() < until; {
			select {
			case <-fed:
				until = 0
			case <-time.After(time.Millisecond):
			}
		}
		return engine.TrainWindow(ml, repo, st, view, from, at, p)
	}
	for i := 0; i < len(l.Events); i += 97 {
		batch := append([]raslog.Event(nil), l.Events[i:min(i+97, len(l.Events))]...)
		if _, err := live.IngestBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		acked.Add(1)
	}
	close(fed)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	want := stateOf(t, live)
	if len(want.stats.Retrains) < 2 || len(want.warnings) == 0 {
		t.Fatalf("live run is trivial: %d passes, %d warnings", len(want.stats.Retrains), len(want.warnings))
	}

	// The inputs: what the live run's WAL holds, in order.
	type input struct {
		e    raslog.Event
		mark bool
	}
	var inputs []input
	store, err := persist.Open(copyStateDir(t, dir, "snap-"), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReplayMarks(0, func(_ uint64, e raslog.Event) error {
		inputs = append(inputs, input{e: e})
		return nil
	}, func(uint64) error {
		inputs = append(inputs, input{mark: true})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	store.Close()

	cfg := durableConfig("")
	cfg, err = cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	var finished []pass
	var c *core
	c = newCore(cfg, func(p pass, view []preprocess.TaggedEvent, from int64) {
		rt, err := engine.TrainWindow(cfg.Meta, c.repo, c.incrState, view, from, p.rec.At, cfg.Params)
		if err != nil {
			p.rec.Err = err.Error()
		} else {
			p.rec.Retraining, p.pr = rt, c.newPredictor(c.repo.Rules())
		}
		finished = append(finished, p)
	}, func(uint64, bool) {})
	next := func() pass {
		p := finished[0]
		finished = finished[1:]
		return p
	}
	for _, in := range inputs {
		if in.mark {
			c.applyMark(next)
		} else {
			c.apply(in.e)
		}
	}
	c.drain(next)

	// A service shell around the core publishes it for stateOf.
	s := &Service{cfg: cfg, core: c, seqCh: make(chan ingestMsg)}
	s.m = newMetrics(s)
	s.m.ingested.Add(int64(c.next))
	s.publish()
	stateOf(t, s).mustEqual(t, "core from a slice", want)
}
