package main

import (
	"strconv"
	"strings"
	"testing"
)

// TestRun runs the example end to end and checks its headline: holding
// job starts during open warnings kills fewer jobs than starting at once.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	killed := map[string]int{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		if n, err := strconv.Atoi(f[1]); err == nil {
			killed[f[0]] = n
		}
	}
	base, aware := killed["baseline"], killed["failure-aware"]
	if base == 0 {
		t.Fatalf("scheduler table missing rows:\n%s", out.String())
	}
	if aware >= base {
		t.Errorf("failure-aware killed %d jobs, want fewer than baseline's %d", aware, base)
	}
}
