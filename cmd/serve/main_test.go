package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

// testServer starts a newServer-built daemon on a loopback listener
// with a tiny in-memory pipeline behind it, returning its base URL.
func testServer(t *testing.T, o serveOpts) string {
	t.Helper()
	cfg := stream.Defaults()
	cfg.InitialTrain = 1 << 40 * time.Millisecond // never trains
	svc, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	srv := newServer(o, stream.NewMux(svc))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestStalledHeaderConnectionReaped is the slowloris pin: a client that
// opens a connection and never finishes its request header must be
// disconnected once ReadHeaderTimeout elapses, not hold the connection
// (and, in fleet mode, eventually an admission slot) forever.
func TestStalledHeaderConnectionReaped(t *testing.T) {
	const headerTimeout = 300 * time.Millisecond
	addr := testServer(t, serveOpts{
		readHeaderTimeout: headerTimeout,
		readTimeout:       time.Minute,
		idleTimeout:       time.Minute,
	})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A syntactically valid prefix that never completes: no blank line.
	if _, err := fmt.Fprintf(conn, "POST /ingest HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}

	// The server must hang up on its own; the read deadline here is only
	// the test's backstop and is far beyond the configured timeout.
	conn.SetReadDeadline(time.Now().Add(10 * headerTimeout))
	t0 := time.Now()
	buf := make([]byte, 256)
	_, err = conn.Read(buf)
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("server responded to an incomplete header instead of closing")
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after a %v ReadHeaderTimeout", elapsed, headerTimeout)
	}
	if elapsed > 5*headerTimeout {
		t.Errorf("stalled connection reaped after %v, want ~%v", elapsed, headerTimeout)
	}
}

// TestServerStillServesWithTimeouts sanity-checks that well-behaved
// requests are untouched by the connection timeouts.
func TestServerStillServesWithTimeouts(t *testing.T) {
	addr := testServer(t, serveOpts{
		readHeaderTimeout: 300 * time.Millisecond,
		readTimeout:       time.Minute,
		idleTimeout:       time.Minute,
	})
	resp, err := http.Post("http://"+addr+"/ingest", "text/plain",
		strings.NewReader("1|RAS|1|0|R00-M0-N0-C:J01-U01|KERNEL|INFO|probe\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := bufio.NewReader(resp.Body).ReadString('\n')
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
}

// TestFlagsDocumented pins serve's flag surface: exactly 21 flags, each
// named in the package usage comment and in README's flag table, and
// none of the retired tuning flags (now constants) named in either.
func TestFlagsDocumented(t *testing.T) {
	var names []string
	flagSet(&serveOpts{}).VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if len(names) != 21 {
		t.Errorf("serve registers %d flags, want 21: %v", len(names), names)
	}
	retired := []string{"queue", "parallelism", "admit-wait", "sync-max-wait",
		"sync-parallel", "ingest-slots", "retrain-workers", "backfill-workers"}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	usage, _, ok := strings.Cut(string(src), "\npackage main")
	if !ok {
		t.Fatal("main.go: no package clause")
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(readme), "\n### Flags\n")
	if !ok {
		t.Fatal("README.md: no ### Flags section")
	}
	list, _, _ = strings.Cut(list, "\n#")

	for _, doc := range []struct{ name, text string }{
		{"usage comment", usage}, {"README flag list", list},
	} {
		for _, n := range names {
			if !namesFlag(doc.text, n) {
				t.Errorf("%s does not mention -%s", doc.name, n)
			}
		}
		for _, n := range retired {
			if namesFlag(doc.text, n) {
				t.Errorf("%s still mentions the retired -%s", doc.name, n)
			}
		}
	}
}

// TestRoutesDocumented pins serve's route surface against README's
// Routes table, both ways: every pattern registered on an HTTP mux —
// stream.NewMux, fleet.NewMux, and the -pprof routes in main.go — has
// a row naming the registering package, and every row names a
// registered pattern. Patterns are read from source with go/parser.
func TestRoutesDocumented(t *testing.T) {
	registered := map[string][]string{} // pattern -> registering packages
	for _, src := range []struct{ pkg, file string }{
		{"stream", "../../internal/stream/http.go"},
		{"fleet", "../../internal/fleet/http.go"},
		{"serve", "main.go"},
	} {
		patterns := muxPatterns(t, src.file)
		if len(patterns) == 0 {
			t.Errorf("%s registers no route; has registration moved?", src.file)
		}
		for _, p := range patterns {
			registered[p] = append(registered[p], src.pkg)
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "\n### Routes\n")
	if !ok {
		t.Fatal("README.md: no ### Routes section")
	}
	table, _, _ = strings.Cut(table, "\n#")
	row := regexp.MustCompile("(?m)^\\| `([^`]+)` \\| ([^|]+) \\|")
	documented := map[string][]string{}
	for _, m := range row.FindAllStringSubmatch(table, -1) {
		if _, dup := documented[m[1]]; dup {
			t.Errorf("README Routes table lists %s twice", m[1])
		}
		documented[m[1]] = strings.Split(m[2], ", ")
	}

	for p, pkgs := range registered {
		sort.Strings(pkgs)
		doc, ok := documented[p]
		if !ok {
			t.Errorf("route %q (%s) has no row in README's Routes table", p, strings.Join(pkgs, ", "))
			continue
		}
		sort.Strings(doc)
		if strings.Join(doc, ", ") != strings.Join(pkgs, ", ") {
			t.Errorf("README Routes row %q names mux %q, registered by %q", p, strings.Join(doc, ", "), strings.Join(pkgs, ", "))
		}
	}
	for p := range documented {
		if _, ok := registered[p]; !ok {
			t.Errorf("README Routes table lists %q, which no mux registers", p)
		}
	}
}

// muxPatterns returns the pattern of every Handle or HandleFunc call in
// the Go file at path. A pattern that is not a string literal is an
// error: the route pin could not read it.
func muxPatterns(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var patterns []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Errorf("%s: a %s pattern is not a string literal", path, sel.Sel.Name)
			return true
		}
		p, _ := strconv.Unquote(lit.Value)
		patterns = append(patterns, p)
		return true
	})
	return patterns
}

// namesFlag reports whether text names -name on its own, not as the
// prefix of a longer flag (-follow vs -follow-poll).
func namesFlag(text, name string) bool {
	return regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `($|[^\w-])`).MatchString(text)
}
