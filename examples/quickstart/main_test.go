package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestRun runs the example end to end and checks its headline: an overall
// precision/recall line and at least one knowledge-repository retraining.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^overall: precision=\S+ recall=\S+`).MatchString(out.String()) {
		t.Errorf("no overall line in:\n%s", out.String())
	}
	if !regexp.MustCompile(`(?m)^  week +\d+: +\d+ rules`).MatchString(out.String()) {
		t.Errorf("no retraining line in:\n%s", out.String())
	}
}
