// Package fleet multiplexes many independent stream.Service instances —
// one per tenant — inside a single serving process. The paper's case
// study trains one online failure predictor per monitored system; a
// datacenter operator runs hundreds of such systems, and giving each its
// own process wastes memory on mostly-idle predictors. The fleet
// registry keeps every tenant's pipeline fully isolated (own learners,
// own warnings, own WAL and snapshots under <root>/tenants/<id>/) while
// sharing the process-wide resources that actually contend: the retrain
// scheduler is bounded by one stream.RetrainLimiter across all tenants,
// and idle tenants are evicted — closed gracefully so their state is
// durable — and transparently reactivated from disk on their next
// request, byte-identical to a tenant that was never evicted.
//
// Tenants are created lazily: the first ingest for an unknown ID mints
// its directory and pipeline. Lookup happens once per request (Acquire),
// never per event, so the per-tenant hot path keeps the zero-allocation
// property of the underlying service.
package fleet

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/predictor"
	"repro/internal/stream"
)

var (
	// ErrClosed is returned by Acquire after Close.
	ErrClosed = errors.New("fleet: registry closed")
	// ErrBadTenantID rejects IDs that are unsafe as directory names or
	// label values (see persist.ValidTenantID) before any path is formed.
	ErrBadTenantID = errors.New("fleet: invalid tenant id")
	// ErrUnknownTenant is returned when create=false and the tenant has
	// no registry entry and no state directory.
	ErrUnknownTenant = errors.New("fleet: unknown tenant")
	// ErrTenantBusy refuses to evict a tenant with in-flight requests.
	ErrTenantBusy = errors.New("fleet: tenant has in-flight requests")
)

// The idle clock. lastUse stores milliseconds of *monotonic* time since
// monoStart, not wall-clock unix milliseconds: the janitor compares
// lastUse against "now minus IdleAfter", and a wall clock that steps
// (NTP correction, VM resume, manual change) would either mass-evict
// tenants used milliseconds ago (step forward) or park tenants with
// last-use stamps in the future that never age out (step backward).
// time.Since reads Go's monotonic reading, which cannot step.
var monoStart = time.Now()

// monoNowMs is the idle clock, a variable so tests can drive it. Never
// returns zero — zero lastUse means "never used".
var monoNowMs = func() int64 {
	ms := time.Since(monoStart).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// Config parameterizes a fleet Registry.
type Config struct {
	// Stream is the template configuration every tenant's service is
	// built from. Its StateDir must be empty (per-tenant directories are
	// derived from Root), its Meta must be nil (tenants must not share
	// learner state), and its RetrainLimiter must be nil (the registry
	// installs the shared one).
	Stream stream.Config
	// Root is the fleet state directory; tenant state lives under
	// Root/tenants/<id>/. Empty disables durability for every tenant —
	// eviction then discards the tenant's learned state.
	Root string
	// DefaultTenant backs the legacy unprefixed HTTP routes ("" means
	// "default"). It is always creatable, even by a GET.
	DefaultTenant string
	// MaxActive softly caps concurrently-active tenants: an activation
	// over the cap first tries to evict the least-recently-used idle
	// tenants, but never blocks on busy ones. 0 means uncapped.
	MaxActive int
	// IdleAfter evicts tenants untouched for this long (stream state is
	// snapshotted on eviction when Root is set). 0 disables the janitor.
	IdleAfter time.Duration
	// SweepEvery is the janitor period (default IdleAfter/4, min 1s).
	SweepEvery time.Duration
}

// The registry's fixed concurrency bounds. Background training passes
// are bounded fleet-wide at GOMAXPROCS by one shared limiter.
const (
	// ingestSlots caps concurrently-admitted ingest requests *per
	// tenant*. Requests over the cap are refused immediately (HTTP 429 +
	// Retry-After) instead of queueing, so a storming tenant saturates
	// only its own slots — it cannot pile up goroutines that sit in the
	// shared admission wait and starve quieter tenants of CPU and
	// connections (TestStormingTenantCannotStarveQuietTenant). Non-ingest
	// routes are never throttled.
	ingestSlots = 4
	// syncParallel bounds concurrent WAL fsyncs across the whole fleet:
	// with a Root, the registry builds one persist.SyncExecutor and
	// installs it in every tenant's stream config (like the retrain
	// limiter), so tenant stores sharing a disk queue behind a few device
	// flushes — and the queueing deepens each store's own commit
	// coalescing — instead of issuing a flush storm.
	syncParallel = 2
)

// Registry owns the fleet's tenants. Lock order: Registry.mu is never
// held while acquiring a tenant.mu, and cross-tenant sweeps (eviction
// for the MaxActive cap, the idle janitor) only TryLock their victims —
// so no lock cycle exists no matter how activations and evictions race.
type Registry struct {
	cfg      Config
	limiter  *stream.RetrainLimiter
	syncExec *persist.SyncExecutor
	m        *metrics
	closed   atomic.Bool

	mu      sync.Mutex
	tenants map[string]*tenant

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// tenant is one registry slot. svc and mux are non-nil exactly while the
// tenant is active; refs counts outstanding Handles. All three are
// guarded by mu; the atomics are readable without it for sweeps and
// listings.
type tenant struct {
	id string

	// ingestSem is the tenant's ingest-slot semaphore. It outlives
	// eviction — slots gate *requests*, which exist whether or not the
	// pipeline is currently active.
	ingestSem chan struct{}

	mu   sync.Mutex
	svc  *stream.Service
	mux  *http.ServeMux
	refs int

	active      atomic.Bool
	activations atomic.Int64
	lastUse     atomic.Int64 // monotonic ms since monoStart (0 = never)
}

// newTenant mints a registry slot for id. Called with Registry.mu held
// (or before the registry is shared).
func (r *Registry) newTenant(id string) *tenant {
	return &tenant{id: id, ingestSem: make(chan struct{}, ingestSlots)}
}

// admitIngest reserves one of the tenant's ingest slots; ok=false means
// the tenant is already at its concurrency cap and the request should be
// refused with 429. release must be called exactly once when ok.
func (tn *tenant) admitIngest() (release func(), ok bool) {
	select {
	case tn.ingestSem <- struct{}{}:
		return func() { <-tn.ingestSem }, true
	default:
		return nil, false
	}
}

// New opens a fleet registry, re-registering (without activating) every
// tenant that left a state directory under Root from a previous run.
func New(cfg Config) (*Registry, error) {
	if cfg.Stream.StateDir != "" {
		return nil, errors.New("fleet: Stream.StateDir must be empty; per-tenant dirs are derived from Root")
	}
	if cfg.Stream.Meta != nil {
		return nil, errors.New("fleet: Stream.Meta must be nil; tenants must not share learner state")
	}
	if cfg.Stream.RetrainLimiter != nil {
		return nil, errors.New("fleet: Stream.RetrainLimiter must be nil; the registry installs the shared limiter")
	}
	if cfg.Stream.WALSyncExec != nil {
		return nil, errors.New("fleet: Stream.WALSyncExec must be nil; the registry installs the shared executor")
	}
	if cfg.DefaultTenant == "" {
		cfg.DefaultTenant = "default"
	}
	if !persist.ValidTenantID(cfg.DefaultTenant) {
		return nil, fmt.Errorf("%w: default tenant %q", ErrBadTenantID, cfg.DefaultTenant)
	}
	r := &Registry{
		cfg:     cfg,
		limiter: stream.NewRetrainLimiter(runtime.GOMAXPROCS(0)),
		tenants: make(map[string]*tenant),
	}
	if cfg.Root != "" {
		r.syncExec = persist.NewSyncExecutor(syncParallel)
		ids, err := persist.ListTenantDirs(cfg.Root)
		if err != nil {
			return nil, fmt.Errorf("fleet: scanning %s: %w", cfg.Root, err)
		}
		for _, id := range ids {
			r.tenants[id] = r.newTenant(id)
		}
	}
	if _, ok := r.tenants[cfg.DefaultTenant]; !ok {
		r.tenants[cfg.DefaultTenant] = r.newTenant(cfg.DefaultTenant)
	}
	r.m = newMetrics(r)
	if cfg.IdleAfter > 0 {
		sweep := cfg.SweepEvery
		if sweep <= 0 {
			sweep = cfg.IdleAfter / 4
		}
		if sweep < time.Second {
			sweep = time.Second
		}
		r.janitorStop = make(chan struct{})
		r.janitorDone = make(chan struct{})
		go r.janitor(sweep)
	}
	return r, nil
}

// Handle is a leased reference to an active tenant: while any Handle is
// outstanding the tenant cannot be evicted. Release it when the request
// finishes.
type Handle struct {
	tn  *tenant
	svc *stream.Service
	mux *http.ServeMux
}

// Service returns the tenant's pipeline.
func (h Handle) Service() *stream.Service { return h.svc }

// ServeHTTP dispatches on the tenant's own API (the stream.NewMux routes).
func (h Handle) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	h.mux.ServeHTTP(w, req)
}

// Release returns the lease. The Handle must not be used afterwards.
func (h Handle) Release() {
	h.tn.mu.Lock()
	h.tn.refs--
	h.tn.mu.Unlock()
}

// Acquire leases tenant id, activating it (recovering durable state from
// disk) if needed. With create=false an ID the registry has never seen
// is ErrUnknownTenant — GETs must not mint state directories for
// arbitrary paths — except the default tenant, which always exists.
func (r *Registry) Acquire(id string, create bool) (Handle, error) {
	if !persist.ValidTenantID(id) {
		return Handle{}, fmt.Errorf("%w: %q", ErrBadTenantID, id)
	}
	if r.closed.Load() {
		return Handle{}, ErrClosed
	}
	r.mu.Lock()
	tn := r.tenants[id]
	if tn == nil {
		if !create && id != r.cfg.DefaultTenant {
			r.mu.Unlock()
			return Handle{}, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
		}
		tn = r.newTenant(id)
		r.tenants[id] = tn
	}
	r.mu.Unlock()

	// Make room for the activation before taking tn.mu: makeRoom needs
	// Registry.mu for its candidate snapshot, and taking that while
	// holding a tenant lock would invert the lock order. The unlocked
	// active check can race — the cap is soft, and a spurious sweep only
	// evicts tenants that are genuinely idle.
	if r.cfg.MaxActive > 0 && !tn.active.Load() {
		r.makeRoom(tn)
	}

	tn.mu.Lock()
	defer tn.mu.Unlock()
	if r.closed.Load() {
		return Handle{}, ErrClosed
	}
	if tn.svc == nil {
		if err := r.activate(tn); err != nil {
			return Handle{}, err
		}
	}
	tn.refs++
	tn.lastUse.Store(monoNowMs())
	return Handle{tn: tn, svc: tn.svc, mux: tn.mux}, nil
}

// activate builds the tenant's service from the template config. Called
// with tn.mu held. Durable recovery restores the tenant's counters, so
// the recovered totals are subtracted from the fleet's retired baseline:
// an evict/reactivate cycle leaves every rollup exactly where it was.
func (r *Registry) activate(tn *tenant) error {
	scfg := r.cfg.Stream
	scfg.RetrainLimiter = r.limiter
	scfg.WALSyncExec = r.syncExec
	if r.cfg.Root != "" {
		dir, err := persist.TenantDir(r.cfg.Root, tn.id)
		if err != nil {
			return fmt.Errorf("%w: %q", ErrBadTenantID, tn.id)
		}
		scfg.StateDir = dir
	}
	svc, err := stream.New(scfg)
	if err != nil {
		return fmt.Errorf("fleet: activating %q: %w", tn.id, err)
	}
	r.m.unretire(svc.Stats())
	tn.svc, tn.mux = svc, stream.NewMux(svc)
	tn.active.Store(true)
	tn.activations.Add(1)
	r.m.activations.Inc()
	return nil
}

// evictLocked closes and releases an active tenant. Called with tn.mu
// held. The final stats are taken after Close — the drained, snapshotted
// totals — and folded into the retired baseline so fleet rollups survive
// the eviction. The tenant is released even if Close reports an error
// (a failed final snapshot leaves the WAL to replay next activation).
func (r *Registry) evictLocked(tn *tenant) error {
	if tn.svc == nil {
		return nil
	}
	if tn.refs > 0 {
		return ErrTenantBusy
	}
	err := tn.svc.Close()
	r.m.retire(tn.svc.Stats())
	tn.svc, tn.mux = nil, nil
	tn.active.Store(false)
	r.m.evictions.Inc()
	return err
}

// Evict closes tenant id and releases its memory; its durable state (if
// Root is set) reactivates on the next Acquire. A tenant with in-flight
// requests is ErrTenantBusy; evicting an inactive tenant is a no-op.
func (r *Registry) Evict(id string) error {
	r.mu.Lock()
	tn := r.tenants[id]
	r.mu.Unlock()
	if tn == nil {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return r.evictLocked(tn)
}

// EvictIdle evicts every active tenant untouched for longer than
// olderThan, skipping busy ones (TryLock — the sweep never blocks a
// request). Returns how many tenants it evicted.
func (r *Registry) EvictIdle(olderThan time.Duration) int {
	cutoff := monoNowMs() - olderThan.Milliseconds()
	n := 0
	for _, tn := range r.snapshot() {
		if !tn.active.Load() || tn.lastUse.Load() > cutoff {
			continue
		}
		if !tn.mu.TryLock() {
			continue
		}
		if tn.refs == 0 && tn.lastUse.Load() <= cutoff {
			_ = r.evictLocked(tn) // released even if the final snapshot failed
			if tn.svc == nil {
				n++
			}
		}
		tn.mu.Unlock()
	}
	return n
}

// makeRoom evicts least-recently-used idle tenants until the active
// count (excluding the tenant about to activate) is back under
// MaxActive. Best-effort: busy tenants are skipped, and if every
// candidate is busy the cap is simply exceeded.
func (r *Registry) makeRoom(skip *tenant) {
	active := 0
	var cands []*tenant
	for _, tn := range r.snapshot() {
		if tn.active.Load() {
			active++
			if tn != skip {
				cands = append(cands, tn)
			}
		}
	}
	need := active - r.cfg.MaxActive + 1
	if need <= 0 {
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].lastUse.Load() < cands[j].lastUse.Load()
	})
	for _, tn := range cands {
		if need <= 0 {
			return
		}
		if !tn.mu.TryLock() {
			continue
		}
		if tn.refs == 0 {
			_ = r.evictLocked(tn)
			if tn.svc == nil {
				need--
			}
		}
		tn.mu.Unlock()
	}
}

// snapshot returns the tenant set without holding Registry.mu past the
// copy, preserving the lock order (never Registry.mu under tenant.mu,
// never tenant.mu under Registry.mu).
func (r *Registry) snapshot() []*tenant {
	r.mu.Lock()
	out := make([]*tenant, 0, len(r.tenants))
	for _, tn := range r.tenants {
		out = append(out, tn)
	}
	r.mu.Unlock()
	return out
}

// janitor periodically evicts idle tenants until Close.
func (r *Registry) janitor(every time.Duration) {
	defer close(r.janitorDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.EvictIdle(r.cfg.IdleAfter)
		case <-r.janitorStop:
			return
		}
	}
}

// Close drains and closes every active tenant concurrently — each gets a
// graceful stream shutdown, so durable tenants restart with an empty WAL
// replay. In-flight requests observe stream.ErrClosed (503 at the HTTP
// layer); their leases are not waited for. Returns the first close error.
func (r *Registry) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	if r.janitorStop != nil {
		close(r.janitorStop)
		<-r.janitorDone
	}
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
	)
	for _, tn := range r.snapshot() {
		wg.Add(1)
		go func(tn *tenant) {
			defer wg.Done()
			tn.mu.Lock()
			defer tn.mu.Unlock()
			if tn.svc == nil {
				return
			}
			err := tn.svc.Close()
			r.m.retire(tn.svc.Stats())
			tn.svc, tn.mux = nil, nil
			tn.active.Store(false)
			if err != nil {
				errMu.Lock()
				if first == nil {
					first = err
				}
				errMu.Unlock()
			}
		}(tn)
	}
	wg.Wait()
	return first
}

// TenantInfo is one GET /tenants row. Counters are live values and read
// zero while the tenant is evicted (its totals stay visible in the fleet
// rollup metrics, and come back on reactivation via durable recovery).
type TenantInfo struct {
	ID          string `json:"id"`
	Active      bool   `json:"active"`
	Activations int64  `json:"activations"`
	LastUseMs   int64  `json:"last_use_ms,omitempty"`
	Ingested    int64  `json:"ingested"`
	Processed   int64  `json:"processed"`
	Warnings    int64  `json:"warnings"`
	Rules       int64  `json:"rules"`
}

// List returns every known tenant sorted by ID.
func (r *Registry) List() []TenantInfo {
	tns := r.snapshot()
	out := make([]TenantInfo, 0, len(tns))
	for _, tn := range tns {
		info := TenantInfo{
			ID:          tn.id,
			Activations: tn.activations.Load(),
		}
		// lastUse is monotonic; convert back to wall clock for the API.
		if ms := tn.lastUse.Load(); ms != 0 {
			info.LastUseMs = monoStart.Add(time.Duration(ms) * time.Millisecond).UnixMilli()
		}
		tn.mu.Lock()
		if tn.svc != nil {
			info.Active = true
			st := tn.svc.Stats()
			info.Ingested, info.Processed = st.Ingested, st.Processed
			info.Warnings, info.Rules = st.WarningsTotal, st.Rules
		}
		tn.mu.Unlock()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TenantWarning is one entry of the fleet-wide warnings firehose.
type TenantWarning struct {
	Tenant string
	predictor.Warning
}

// Firehose merges the retained warnings of every active tenant into one
// stream ordered by (Time, Tenant, RuleID) and returns the most recent n
// (n <= 0 means all). Evicted tenants' warnings live in their snapshots
// and rejoin the firehose when they reactivate.
func (r *Registry) Firehose(n int) []TenantWarning {
	var out []TenantWarning
	for _, tn := range r.snapshot() {
		tn.mu.Lock()
		if tn.svc != nil {
			for _, w := range tn.svc.Warnings(0) {
				out = append(out, TenantWarning{Tenant: tn.id, Warning: w})
			}
		}
		tn.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.RuleID < b.RuleID
	})
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// DefaultTenant returns the tenant ID backing the unprefixed routes.
func (r *Registry) DefaultTenant() string { return r.cfg.DefaultTenant }

// Limiter exposes the shared retrain limiter.
func (r *Registry) Limiter() *stream.RetrainLimiter { return r.limiter }
