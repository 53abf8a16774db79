package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/raslog"
)

func logBody(t *testing.T, l *raslog.Log) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if _, err := raslog.WriteLog(&buf, l); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func do(t *testing.T, mux *http.ServeMux, method, target string, body *bytes.Buffer) *httptest.ResponseRecorder {
	t.Helper()
	if body == nil {
		body = &bytes.Buffer{}
	}
	req := httptest.NewRequest(method, target, body)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

// TestTenantRoutingAndLegacyAliases drives the full HTTP surface: ingest
// into two prefixed tenants, read back tenant-scoped warnings and stats,
// list the fleet, and confirm the unprefixed legacy routes land on the
// default tenant.
func TestTenantRoutingAndLegacyAliases(t *testing.T) {
	l := genLog(t, 3, 6)
	reg := mustFleet(t, Config{Root: t.TempDir()})
	defer reg.Close()
	mux := NewMux(reg)

	// Each tenant gets the log in the same posts, applied one by one, so
	// their passes install at the same positions (see applied).
	post := func(id, target string) {
		for i := 0; i < l.Len(); i += 256 {
			part := &raslog.Log{Events: l.Events[i:min(i+256, l.Len())]}
			if rec := do(t, mux, "POST", target, logBody(t, part)); rec.Code != http.StatusOK {
				t.Fatalf("POST %s = %d: %s", target, rec.Code, rec.Body)
			}
			h, err := reg.Acquire(id, false)
			if err != nil {
				t.Fatal(err)
			}
			applied(t, h.Service())
			h.Release()
		}
	}
	for _, id := range []string{"alpha", "beta"} {
		post(id, "/t/"+id+"/ingest/batch")
	}
	// Legacy unprefixed ingest lands on (and lazily creates) the default
	// tenant.
	post("default", "/ingest/batch")

	// Evict + reactivate drains the tenants so their stats are settled.
	for _, id := range []string{"alpha", "beta", "default"} {
		if err := reg.Evict(id); err != nil {
			t.Fatal(err)
		}
	}

	var stats struct {
		Ingested int64 `json:"ingested"`
	}
	rec := do(t, mux, "GET", "/t/alpha/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /t/alpha/stats = %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Ingested != int64(l.Len()) {
		t.Errorf("tenant alpha ingested %d, want %d", stats.Ingested, l.Len())
	}
	// The legacy alias reads the same numbers from the default tenant.
	rec = do(t, mux, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /stats = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Ingested != int64(l.Len()) {
		t.Errorf("default tenant ingested %d, want %d", stats.Ingested, l.Len())
	}

	var warns []map[string]interface{}
	rec = do(t, mux, "GET", "/t/alpha/warnings?n=5", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /t/alpha/warnings = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &warns); err != nil {
		t.Fatal(err)
	}
	if len(warns) == 0 || len(warns) > 5 {
		t.Errorf("tenant warnings returned %d entries, want 1..5", len(warns))
	}

	var list []TenantInfo
	rec = do(t, mux, "GET", "/tenants", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /tenants = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("GET /tenants returned %d tenants, want 3: %+v", len(list), list)
	}
	for i, want := range []string{"alpha", "beta", "default"} {
		if list[i].ID != want {
			t.Errorf("tenant %d = %q, want %q (sorted)", i, list[i].ID, want)
		}
	}

	// The firehose merges every *active* tenant; beta is still evicted
	// from the drain above, so touch it first to bring its warnings back
	// into the merge (a GET activates known tenants).
	if rec := do(t, mux, "GET", "/t/beta/stats", nil); rec.Code != http.StatusOK {
		t.Fatalf("GET /t/beta/stats = %d", rec.Code)
	}
	// Every tenant saw the same log, so each contributes the same
	// warnings tagged with its own ID.
	var fire []struct {
		Tenant string `json:"tenant"`
		TimeMs int64  `json:"time_ms"`
	}
	rec = do(t, mux, "GET", "/warnings?all=1&n=1000000", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /warnings?all=1 = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fire); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	lastTime := int64(-1 << 62)
	for _, f := range fire {
		seen[f.Tenant]++
		if f.TimeMs < lastTime {
			t.Fatalf("firehose out of order: %d after %d", f.TimeMs, lastTime)
		}
		lastTime = f.TimeMs
	}
	if len(seen) != 3 || seen["alpha"] == 0 || seen["alpha"] != seen["beta"] || seen["alpha"] != seen["default"] {
		t.Errorf("firehose tenant mix = %v, want equal counts for alpha/beta/default", seen)
	}

	// GET on a tenant the fleet has never seen must 404, not create it.
	if rec := do(t, mux, "GET", "/t/ghost/stats", nil); rec.Code != http.StatusNotFound {
		t.Errorf("GET /t/ghost/stats = %d, want 404", rec.Code)
	}
	// Per-tenant health and metrics ride the same prefix.
	if rec := do(t, mux, "GET", "/t/alpha/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("GET /t/alpha/healthz = %d, want 200", rec.Code)
	}
	if rec := do(t, mux, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("GET /healthz = %d, want 200", rec.Code)
	}
}

// TestTenantIDValidationRejectsTraversal is the security regression test:
// encoded path separators and dot-segments in the tenant position must
// be rejected with 400 before any filesystem path is formed.
func TestTenantIDValidationRejectsTraversal(t *testing.T) {
	root := t.TempDir()
	reg := mustFleet(t, Config{Root: root})
	defer reg.Close()
	mux := NewMux(reg)

	for _, target := range []string{
		"/t/%2e%2e/ingest",
		"/t/%2e%2e%2fother/ingest",
		"/t/a%2fb/ingest",
		"/t/a%5cb/ingest",
		"/t/" + strings.Repeat("x", 65) + "/ingest",
		"/t/sp%20ace/ingest",
	} {
		rec := do(t, mux, "POST", target, bytes.NewBufferString(""))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", target, rec.Code)
		}
	}
	// Nothing above may have touched the filesystem.
	if entries, err := os.ReadDir(filepath.Join(root, "tenants")); err == nil && len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("traversal attempts created state dirs: %v", names)
	}
	if entries, err := os.ReadDir(root); err != nil {
		t.Fatal(err)
	} else {
		for _, e := range entries {
			if e.Name() != "tenants" {
				t.Errorf("stray entry %q in fleet root", e.Name())
			}
		}
	}
}

// TestHTTPErrorMapping pins Acquire error → status code translation.
func TestHTTPErrorMapping(t *testing.T) {
	reg := mustFleet(t, Config{Root: t.TempDir()})
	mux := NewMux(reg)

	if rec := do(t, mux, "GET", "/t/never-seen/warnings", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown tenant GET = %d, want 404", rec.Code)
	}
	if rec := do(t, mux, "POST", "/t/bad..id%2f/ingest", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad tenant id = %d, want 400", rec.Code)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, mux, "POST", "/t/alpha/ingest", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("closed registry = %d, want 503", rec.Code)
	}
	if rec := do(t, mux, "GET", "/warnings?all=2", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad all= value = %d, want 400", rec.Code)
	}
}

// TestFleetMetricsEndpoint spot-checks the aggregate exposition over
// HTTP; the full parser round-trip lives in metrics_test.go.
func TestFleetMetricsEndpoint(t *testing.T) {
	l := genLog(t, 5, 4)
	reg := mustFleet(t, Config{Root: t.TempDir()})
	defer reg.Close()
	mux := NewMux(reg)

	if rec := do(t, mux, "POST", "/t/alpha/ingest/batch", logBody(t, l)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
	}
	rec := do(t, mux, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"fleet_tenants_active 1",
		`stream_ingested_total{tenant="alpha"} ` + fmt.Sprint(l.Len()),
		"fleet_ingested_total " + fmt.Sprint(l.Len()),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
