package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obsv"
)

// NewMux returns the fleet's HTTP API. Every per-tenant route of
// stream.NewMux is reachable under a tenant prefix:
//
//	POST /t/{tenant}/ingest        group-committed ingest into one tenant
//	                               (created lazily)
//	POST /t/{tenant}/ingest/batch  the same handler
//	GET  /t/{tenant}/warnings      that tenant's recent warnings
//	GET  /t/{tenant}/stats         that tenant's counters
//	GET  /t/{tenant}/metrics       that tenant's registry, unlabeled
//	POST /t/{tenant}/retrain       force a pass; returns once it is installed
//
// plus the fleet-level routes:
//
//	GET  /tenants        every known tenant with live counters
//	GET  /warnings?all=1 merged firehose across active tenants (?n=50)
//	GET  /metrics        aggregate exposition, per-tenant series labeled
//	                     tenant="<id>" plus fleet_* rollups
//	GET  /healthz        liveness
//
// The unprefixed service routes (POST /ingest, POST /ingest/batch,
// GET /warnings, GET /stats, POST /retrain) alias the default tenant, so
// a single-tenant deployment upgrading to fleet mode keeps working
// unchanged.
//
// Tenant IDs are validated before any filesystem path is formed: an ID
// with a path separator, over 64 bytes, or outside [A-Za-z0-9._-] is a
// 400. Unknown tenants are created by POSTs only; a GET for a tenant the
// fleet has never seen is a 404.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/t/{tenant}/{rest...}", r.handleTenant)
	mux.HandleFunc("GET /tenants", r.handleTenants)
	mux.HandleFunc("GET /warnings", r.handleWarnings)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /ingest", r.delegateDefault)
	mux.HandleFunc("POST /ingest/batch", r.delegateDefault)
	mux.HandleFunc("GET /stats", r.delegateDefault)
	mux.HandleFunc("POST /retrain", r.delegateDefault)
	return mux
}

// handleTenant routes one request into a tenant's own mux. The tenant
// lookup (and lazy activation) happens once here — the per-event path
// below it is the tenant service's own zero-allocation pipeline. POST
// creates unknown tenants; GET does not, so scrapes and typos cannot
// mint state directories.
func (r *Registry) handleTenant(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("tenant")
	h, err := r.Acquire(id, req.Method == http.MethodPost)
	if err != nil {
		writeAcquireError(w, err)
		return
	}
	defer h.Release()
	rest := "/" + req.PathValue("rest")
	if isIngestRoute(req.Method, rest) {
		release, ok := h.tn.admitIngest()
		if !ok {
			r.writeThrottled(w, id)
			return
		}
		defer release()
	}
	// Shallow-copy the request with the tenant prefix stripped, the same
	// contract http.StripPrefix implements, so the tenant mux sees the
	// exact paths stream.NewMux registers.
	r2 := new(http.Request)
	*r2 = *req
	u := *req.URL
	u.Path = rest
	u.RawPath = ""
	r2.URL = &u
	h.ServeHTTP(w, r2)
}

// isIngestRoute matches the two event-bearing routes the per-tenant
// slot cap applies to; everything else (stats, warnings, retrain) stays
// unthrottled so a storming tenant remains observable.
func isIngestRoute(method, path string) bool {
	return method == http.MethodPost && (path == "/ingest" || path == "/ingest/batch")
}

// writeThrottled refuses an ingest request at the tenant's concurrency
// cap: immediate 429 + Retry-After, shaped like the stream layer's own
// saturation response so clients handle both identically (back off, then
// resume — nothing from the request body was accepted, so Line is 1).
func (r *Registry) writeThrottled(w http.ResponseWriter, id string) {
	r.m.throttled.Inc()
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusTooManyRequests, map[string]interface{}{
		"accepted": 0,
		"line":     1,
		"error":    fmt.Sprintf("fleet: tenant %q at its ingest concurrency cap", id),
	})
}

// delegateDefault serves a legacy unprefixed route on the default
// tenant. The path needs no rewriting — the alias routes match the
// tenant mux's own patterns verbatim.
func (r *Registry) delegateDefault(w http.ResponseWriter, req *http.Request) {
	h, err := r.Acquire(r.cfg.DefaultTenant, true)
	if err != nil {
		writeAcquireError(w, err)
		return
	}
	defer h.Release()
	if isIngestRoute(req.Method, req.URL.Path) {
		release, ok := h.tn.admitIngest()
		if !ok {
			r.writeThrottled(w, r.cfg.DefaultTenant)
			return
		}
		defer release()
	}
	h.ServeHTTP(w, req)
}

func writeAcquireError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadTenantID):
		status = http.StatusBadRequest
	case errors.Is(err, ErrUnknownTenant):
		status = http.StatusNotFound
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrTenantBusy):
		status = http.StatusConflict
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (r *Registry) handleTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, r.List())
}

// tenantWarningJSON mirrors the per-tenant /warnings entry shape with
// the originating tenant added, so firehose consumers can reuse their
// existing decoder.
type tenantWarningJSON struct {
	Tenant     string `json:"tenant"`
	TimeMs     int64  `json:"time_ms"`
	Time       string `json:"time"`
	DeadlineMs int64  `json:"deadline_ms"`
	Source     string `json:"source"`
	Rule       string `json:"rule"`
	Target     int    `json:"target"`
}

// handleWarnings serves GET /warnings: with all=1 the merged fleet
// firehose, otherwise the default tenant's warnings (the legacy alias).
func (r *Registry) handleWarnings(w http.ResponseWriter, req *http.Request) {
	if v := req.URL.Query().Get("all"); v == "" {
		r.delegateDefault(w, req)
		return
	} else if v != "1" && v != "true" {
		http.Error(w, fmt.Sprintf("bad all=%q", v), http.StatusBadRequest)
		return
	}
	n := 50
	if v := req.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			http.Error(w, fmt.Sprintf("bad n=%q", v), http.StatusBadRequest)
			return
		}
		n = parsed
	}
	warns := r.Firehose(n)
	out := make([]tenantWarningJSON, len(warns))
	for i, wr := range warns {
		out[i] = tenantWarningJSON{
			Tenant:     wr.Tenant,
			TimeMs:     wr.Time,
			Time:       time.UnixMilli(wr.Time).UTC().Format(time.RFC3339),
			DeadlineMs: wr.Deadline,
			Source:     wr.Source.String(),
			Rule:       wr.RuleID,
			Target:     wr.Target,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (r *Registry) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obsv.TextContentType)
	_ = r.WriteMetrics(w)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
