package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/grid"
	"repro/internal/results"
)

// taskState tracks one expanded trial through the lease lifecycle.
type taskState int

const (
	taskPending taskState = iota
	taskLeased
	taskDone
)

// fleetTask is one expanded trial: its content address, effective config,
// and position in the summary layout.
type fleetTask struct {
	key              string
	cfg              bench.WorkloadConfig
	cfgIdx, trialIdx int
	state            taskState
	leaseID          string
}

// lease is one outstanding grant.
type lease struct {
	id      string
	taskIdx int
	worker  string
	expires time.Time
}

// CoordinatorConfig assembles a Coordinator.
type CoordinatorConfig struct {
	// Store caches, persists, and dedupes trials; required. Trials whose
	// keys are already present are marked done at construction (resume).
	Store *results.Store
	// LeaseTTL bounds how long a worker may hold a trial without renewing;
	// <= 0 means 30s. Too short re-issues slow trials (harmless — dedupe —
	// but wasteful); too long delays recovery from a dead worker by the
	// whole TTL.
	LeaseTTL time.Duration
	// Deadline/Faults are the runner-level defaults applied to every config
	// before key computation, exactly as grid.Runner would (ExpandTasks).
	Deadline time.Duration
	Faults   []bench.FaultSpec
	// Clock is the time source; nil means time.Now. Injectable so lease
	// expiry is testable without real waits.
	Clock func() time.Time
	// Cost is the scheduling cost model; nil builds one seeded from the
	// store's measured elapsed times. The coordinator grants costliest-
	// fitting-first (the distributed face of the grid runner's LPT policy)
	// and feeds every completion's measured wall time back into the model.
	Cost *grid.CostModel
	// Logf, when set, receives one line per fleet event (grants, expiries,
	// completions, duplicates). Serialized under the coordinator lock.
	Logf func(format string, args ...any)
}

// Coordinator owns one sweep: the expanded trial list, the lease table, and
// the store. All state transitions happen under one lock; persistence goes
// through the store's crash-safe append log, so a coordinator killed at any
// point restarts from the store with nothing lost — completed trials are
// skipped, incomplete ones re-issued (their stale claims are journal
// entries, not commitments).
type Coordinator struct {
	store *results.Store
	ttl   time.Duration
	now   func() time.Time
	logf  func(string, ...any)
	model *grid.CostModel

	mu     sync.Mutex
	eff    []bench.WorkloadConfig
	trials int
	tasks  []*fleetTask
	byKey  map[string][]int
	leases map[string]*lease
	seq    int

	executed, cached, quarantined int
	duplicates, reissued          int
	doneCount                     int
	granted                       int
	doneCh                        chan struct{}

	startedAt time.Time
	// completedCost sums the model's estimate of every freshly completed
	// trial; divided by wall time since startedAt it is the fleet's
	// observed throughput (in estimated-cost units per nanosecond), the
	// denominator of the status ETA.
	completedCost float64
	workers       map[string]*workerStats
}

// workerStats is the coordinator's per-worker completion ledger.
type workerStats struct {
	done      int
	firstSeen time.Time
	lastDone  time.Time
}

// NewCoordinator expands cfgs×trials with the runner's seed-chain convention
// and builds the coordinator over the store. Trials already in the store
// (including quarantines) are done before the first lease is granted — this
// is what makes a coordinator restart resume instead of re-running.
func NewCoordinator(cfgs []bench.WorkloadConfig, trials int, cc CoordinatorConfig) (*Coordinator, error) {
	if cc.Store == nil {
		return nil, fmt.Errorf("fleet: coordinator requires a store")
	}
	ttl := cc.LeaseTTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	now := cc.Clock
	if now == nil {
		now = time.Now
	}
	logf := cc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	model := cc.Cost
	if model == nil {
		model = grid.NewCostModel(cc.Store)
	}
	eff, expanded := grid.ExpandTasks(cfgs, trials, cc.Faults, cc.Deadline)
	c := &Coordinator{
		store:     cc.Store,
		ttl:       ttl,
		now:       now,
		logf:      logf,
		model:     model,
		eff:       eff,
		trials:    trials,
		byKey:     map[string][]int{},
		leases:    map[string]*lease{},
		doneCh:    make(chan struct{}),
		startedAt: now(),
		workers:   map[string]*workerStats{},
	}
	for _, t := range expanded {
		ft := &fleetTask{
			key:    results.KeyOf(t.Cfg),
			cfg:    t.Cfg,
			cfgIdx: t.CfgIdx, trialIdx: t.TrialIdx,
		}
		idx := len(c.tasks)
		c.tasks = append(c.tasks, ft)
		c.byKey[ft.key] = append(c.byKey[ft.key], idx)
		if recs := c.store.Get(ft.key); len(recs) > 0 {
			ft.state = taskDone
			c.doneCount++
			if recs[0].Quarantined {
				c.quarantined++
			} else {
				c.cached++
			}
		}
	}
	if c.doneCount == len(c.tasks) {
		close(c.doneCh)
	}
	return c, nil
}

// reclaimExpiredLocked returns every expired lease's trial to the pending
// pool. Called lazily on each lease request — there is no background timer
// to race with, which keeps expiry deterministic under an injected clock.
func (c *Coordinator) reclaimExpiredLocked() {
	now := c.now()
	for id, l := range c.leases {
		if l.expires.After(now) {
			continue
		}
		delete(c.leases, id)
		t := c.tasks[l.taskIdx]
		if t.state == taskLeased && t.leaseID == id {
			t.state = taskPending
			t.leaseID = ""
			c.reissued++
			c.logf("fleet: lease %s (%s) from %s expired; re-issuing %s",
				id, short(t.key), l.worker, results.Label(t.cfg))
		}
	}
}

// grantLocked journals the claim for task i and attaches a fresh lease to
// worker; caller holds mu and guarantees the task is pending.
func (c *Coordinator) grantLocked(i int, worker string) (LeaseResponse, error) {
	t := c.tasks[i]
	c.seq++
	id := fmt.Sprintf("L%d", c.seq)
	expires := c.now().Add(c.ttl)
	// Journal the claim before answering: if the append fails the
	// store is broken and granting would strand the trial's result.
	if err := c.store.Append(results.NewClaim(t.key, worker, expires)); err != nil {
		return LeaseResponse{}, fmt.Errorf("fleet: journaling claim: %w", err)
	}
	t.state = taskLeased
	t.leaseID = id
	c.leases[id] = &lease{id: id, taskIdx: i, worker: worker, expires: expires}
	c.granted++
	c.logf("fleet: leased %s (%s) to %s until %s",
		results.Label(t.cfg), short(t.key), worker, expires.Format(time.RFC3339))
	return LeaseResponse{Status: StatusLease, LeaseID: id, Key: t.key, Config: t.cfg,
		ExpiresUnixNano: expires.UnixNano()}, nil
}

// fits reports whether a trial's thread demand fits an advertised capacity
// (<= 0 means unlimited).
func fits(cfg bench.WorkloadConfig, capacity int) bool {
	return capacity <= 0 || cfg.Threads <= capacity
}

// Lease grants one pending trial to the requesting worker, journaling the
// claim. The grant policy is the distributed face of the grid runner's LPT
// scheduler: the grant is the costliest pending trial that fits the
// worker's advertised Capacity, so the biggest remaining work starts
// earliest on the workers that can run it — the makespan argument. When
// nothing fits the capacity, the cheapest pending trial is granted anyway
// (capacity is advisory; a slow trial beats a stalled sweep). When
// everything is leased-but-unfinished it answers StatusWait; when the sweep
// is complete, StatusDone.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpiredLocked()
	if ws := c.workers[req.Worker]; ws == nil {
		c.workers[req.Worker] = &workerStats{firstSeen: c.now()}
	}
	if c.doneCount == len(c.tasks) {
		return LeaseResponse{Status: StatusDone}, nil
	}
	// Estimate every pending trial once per request: the model shifts as
	// completions feed it, so ordering is computed live rather than pinned
	// at expansion. Pending counts are small (a sweep, not a job queue).
	type pendingTask struct {
		idx int
		est float64
	}
	var pending []pendingTask
	for i, t := range c.tasks {
		if t.state == taskPending {
			pending = append(pending, pendingTask{idx: i, est: c.model.Estimate(t.cfg)})
		}
	}
	if len(pending) == 0 {
		retry := c.ttl / 8
		if retry > 250*time.Millisecond {
			retry = 250 * time.Millisecond
		}
		if retry < 10*time.Millisecond {
			retry = 10 * time.Millisecond
		}
		return LeaseResponse{Status: StatusWait, RetryMs: int(retry.Milliseconds())}, nil
	}
	// Descending cost, ties in expansion order — deterministic given the
	// same model state.
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].est > pending[j].est })
	pick := -1
	for i, p := range pending {
		if fits(c.tasks[p.idx].cfg, req.Capacity) {
			pick = i
			break
		}
	}
	if pick < 0 {
		// Nothing fits the advertised capacity: grant the cheapest pending
		// trial (last in descending order) so an undersized worker makes
		// slow progress instead of the sweep waiting for a big worker that
		// may never come.
		pick = len(pending) - 1
		c.logf("fleet: no pending trial fits capacity %d from %s; granting cheapest",
			req.Capacity, req.Worker)
	}
	return c.grantLocked(pending[pick].idx, req.Worker)
}

// Renew extends a held lease. A false OK means the lease already expired
// (and the trial may be re-issued): the worker should finish anyway and let
// dedupe sort it out.
func (c *Coordinator) Renew(req RenewRequest) RenewResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpiredLocked() // an expired lease is gone even if nobody leased since
	l, ok := c.leases[req.LeaseID]
	if !ok {
		return RenewResponse{OK: false}
	}
	l.expires = c.now().Add(c.ttl)
	return RenewResponse{OK: true, ExpiresUnixNano: l.expires.UnixNano()}
}

// Complete accepts a finished trial. Identity is the key, not the lease: a
// completion whose lease expired (or that arrives twice via a duplicated
// RPC) is still the same content-addressed trial, so the first one in wins
// and the rest are acknowledged as duplicates. The record is persisted
// through AppendIfAbsent before the trial is marked done — a crash between
// the two at worst re-issues an already-stored trial, whose completion then
// dedupes; the store never ends up with two records for one key.
//
// The worker's record is not trusted: a completion is rejected unless the
// key is one this sweep expanded and both the record's key and its config's
// key equal it. A rejection changes nothing — no append, no done mark, the
// lease kept — so the lease expires and the trial is re-issued.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	// Hash outside the lock: it depends only on the request.
	ownRecord := req.Record.Key == req.Key && results.KeyOf(req.Record.Config) == req.Key
	c.mu.Lock()
	defer c.mu.Unlock()
	idxs, ok := c.byKey[req.Key]
	if !ok {
		c.logf("fleet: rejecting completion of unknown key %s from %s", req.Key, req.Worker)
		return CompleteResponse{Accepted: false}, nil
	}
	if !ownRecord {
		c.logf("fleet: rejecting completion of %s from %s: record is for another trial (key %s)",
			short(req.Key), req.Worker, short(req.Record.Key))
		return CompleteResponse{Accepted: false}, nil
	}
	delete(c.leases, req.LeaseID)
	allDone := true
	for _, i := range idxs {
		if c.tasks[i].state != taskDone {
			allDone = false
		}
	}
	if allDone {
		c.duplicates++
		c.logf("fleet: duplicate completion of %s from %s (dedupe)", short(req.Key), req.Worker)
		return CompleteResponse{Accepted: true, Duplicate: true, Done: c.doneCount == len(c.tasks)}, nil
	}
	rec := req.Record
	rec.Worker = req.Worker
	added, err := c.store.AppendIfAbsent(rec)
	if err != nil {
		return CompleteResponse{}, fmt.Errorf("fleet: persisting completion: %w", err)
	}
	// Feed the completion into the cost model and the throughput ledger
	// before marking done, so the ETA's remaining-cost sum and completed-
	// cost accumulator never both count the same trial.
	c.completedCost += c.model.Estimate(rec.Config)
	elapsed := rec.ElapsedNanos
	if elapsed == 0 {
		elapsed = rec.Trial.ElapsedNanos
	}
	if elapsed > 0 {
		c.model.Observe(rec.Config, elapsed)
	}
	ws := c.workers[req.Worker]
	if ws == nil {
		ws = &workerStats{firstSeen: c.now()}
		c.workers[req.Worker] = ws
	}
	ws.done++
	ws.lastDone = c.now()
	for _, i := range idxs {
		t := c.tasks[i]
		if t.state == taskDone {
			continue
		}
		t.state = taskDone
		t.leaseID = ""
		c.doneCount++
	}
	switch {
	case !added:
		// The key was already in the store (it arrived by merge or a
		// concurrent writer) but the task was not yet marked done — count
		// it as cached, like a startup hit.
		c.cached++
	case rec.Quarantined:
		c.quarantined++
	default:
		c.executed++
	}
	c.logf("fleet: completed %s (%s) from %s [%d/%d]",
		results.Label(rec.Config), short(req.Key), req.Worker, c.doneCount, len(c.tasks))
	done := c.doneCount == len(c.tasks)
	if done {
		select {
		case <-c.doneCh:
		default:
			close(c.doneCh)
		}
	}
	return CompleteResponse{Accepted: true, Done: done}, nil
}

// Done returns a channel closed when every trial is complete.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Granted reports the cumulative number of leases granted over the
// coordinator's lifetime. `epochgrid -serve` polls it to detect that no
// worker ever showed up and fall back to draining locally.
func (c *Coordinator) Granted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.granted
}

// Status snapshots the observable state, including the cost-model ETA:
// remaining estimated cost over observed completion throughput. Both sides
// of that division are model-unit sums, so the units cancel and the ratio
// is wall seconds — no calibration needed beyond what the model learned.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := StatusResponse{
		Total: len(c.tasks), Done: c.doneCount,
		Executed: c.executed, Cached: c.cached, Quarantined: c.quarantined,
		Leased:     len(c.leases),
		Duplicates: c.duplicates, Reissued: c.reissued,
		Complete: c.doneCount == len(c.tasks),
	}
	if !resp.Complete && c.completedCost > 0 {
		wall := c.now().Sub(c.startedAt)
		if wall > 0 {
			var remaining float64
			for _, t := range c.tasks {
				if t.state != taskDone {
					remaining += c.model.Estimate(t.cfg)
				}
			}
			throughput := c.completedCost / wall.Seconds() // cost units per wall second
			if throughput > 0 {
				resp.ETASeconds = remaining / throughput
			}
		}
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws := c.workers[name]
		w := WorkerStatus{Name: name, Done: ws.done}
		if span := ws.lastDone.Sub(ws.firstSeen); span > 0 && ws.done > 0 {
			w.RatePerSec = float64(ws.done) / span.Seconds()
		}
		resp.Workers = append(resp.Workers, w)
	}
	return resp
}

// Summaries assembles per-config summaries from the store, in input-config
// order with trials in seed-chain order — the same layout Runner.Run
// returns, so `epochgrid -serve` emits exactly what the single-process sweep
// would. Quarantined trials are excluded; a config with no successful trial
// yields a zero summary carrying the config.
func (c *Coordinator) Summaries() []bench.Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	perCfg := make([][]bench.TrialResult, len(c.eff))
	for _, t := range c.tasks {
		recs := c.store.Get(t.key)
		if len(recs) == 0 || recs[0].Quarantined {
			continue
		}
		perCfg[t.cfgIdx] = append(perCfg[t.cfgIdx], recs[0].Trial)
	}
	out := make([]bench.Summary, len(c.eff))
	for i, cfg := range c.eff {
		if len(perCfg[i]) == 0 {
			out[i] = bench.Summary{Cfg: cfg}
			continue
		}
		out[i] = bench.SummarizeTrials(cfg, perCfg[i])
	}
	return out
}

// Handler returns the coordinator's HTTP surface:
//
//	POST /v1/lease    LeaseRequest    -> LeaseResponse
//	POST /v1/renew    RenewRequest    -> RenewResponse
//	POST /v1/complete CompleteRequest -> CompleteResponse
//	GET  /v1/status                   -> StatusResponse
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decode(w, r, &req) {
			return
		}
		if req.Schema != results.SchemaVersion {
			// A worker at another schema would hash different TrialKeys:
			// refuse it at its first lease rather than at every completion.
			http.Error(w, fmt.Sprintf("schema mismatch: worker schema %d, coordinator schema %d",
				req.Schema, results.SchemaVersion), http.StatusConflict)
			return
		}
		resp, err := c.Lease(req)
		reply(w, resp, err)
	})
	mux.HandleFunc("/v1/renew", func(w http.ResponseWriter, r *http.Request) {
		var req RenewRequest
		if !decode(w, r, &req) {
			return
		}
		reply(w, c.Renew(req), nil)
	})
	mux.HandleFunc("/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := c.Complete(req)
		reply(w, resp, err)
	})
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		reply(w, c.Status(), nil)
	})
	return mux
}

// decode reads a JSON request body (POST only), answering the error itself
// when the body is malformed.
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	body := http.MaxBytesReader(w, r.Body, 16<<20)
	if err := json.NewDecoder(body).Decode(into); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// reply writes a JSON response, mapping coordinator-side errors
// (store/journal failures) to 500 so clients retry.
func reply(w http.ResponseWriter, resp any, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
