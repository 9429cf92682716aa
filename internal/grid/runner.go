package grid

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/results"
)

// Progress is one streamed runner event: a trial finished (from cache,
// execution, or permanent failure). Counters are cumulative over the Run
// call.
type Progress struct {
	// Done/Total count trials, not configs (each config contributes one
	// trial per chained seed).
	Done, Total int
	// Executed/Cached/Failed partition Done. A failed trial exhausted its
	// retries (or hit a cached quarantine record) — the sweep kept going.
	Executed, Cached, Failed int
	// Key and Config identify the trial that just completed.
	Key    string
	Config bench.WorkloadConfig
	// FromCache is true when the trial was satisfied from the store —
	// including a cached quarantine record (then Err is also set).
	FromCache bool
	// Err is the permanent failure for a failed trial, nil otherwise.
	Err error
	// Attempts is how many executions this trial took (0 for cache hits).
	Attempts int
}

// weighted is a counting semaphore with weighted acquisition. The single
// dispatching goroutine is the only waiter, so a plain cond suffices.
type weighted struct {
	mu   sync.Mutex
	cond *sync.Cond
	free int
}

func newWeighted(capacity int) *weighted {
	w := &weighted{free: capacity}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func (w *weighted) acquire(n int) {
	w.mu.Lock()
	for w.free < n {
		w.cond.Wait()
	}
	w.free -= n
	w.mu.Unlock()
}

func (w *weighted) release(n int) {
	w.mu.Lock()
	w.free += n
	w.mu.Unlock()
	w.cond.Broadcast()
}

// available reports the instantaneous free-token count. Advisory only: the
// value can change before the caller acts on it, so it steers backfill
// choices (would this trial fit right now?) while the blocking acquire
// remains the correctness point.
func (w *weighted) available() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.free
}

// Runner.Schedule values. The zero value selects cost-ordered dispatch
// (when Parallel > 1), so sweeps get LPT scheduling without opting in.
const (
	// ScheduleCost dispatches pending trials in descending estimated cost
	// with budget-aware backfill (the default for Parallel > 1).
	ScheduleCost = "cost"
	// ScheduleFIFO dispatches pending trials in expansion order — the
	// control arm of the makespan benchmark.
	ScheduleFIFO = "fifo"
)

// Runner executes expanded configuration batches. Completed trials are
// looked up in — and appended to — Store (when set), so a re-run of the
// same grid against the same store executes nothing, and an interrupted
// sweep resumes from its last flushed record.
//
// The runner survives bad trials: a panic is recovered into an error, an
// error is retried up to Retries times with doubling Backoff, and a
// permanent failure is quarantined — persisted to the store as a
// quarantine record (so resume skips it), reported through OnProgress, and
// excluded from summaries — while the rest of the sweep keeps running. Run
// returns an error only for infrastructure failures (store appends) or
// when every trial failed.
//
// Concurrency is bounded two ways: Parallel caps in-flight trials, and each
// in-flight trial additionally holds cfg.Threads tokens of the global
// Budget. A 192-thread trial next to a 2-thread trial costs 96× more of
// the budget, so concurrent trials cannot oversubscribe the host — which
// would stretch every measured wall clock and distort the modeled-cost
// percentages that are normalized against it.
type Runner struct {
	// Store caches and persists trials; nil disables caching. Trials with
	// Record set always execute and are never stored: a timeline cannot be
	// replayed from a JSONL record.
	Store *results.Store
	// Parallel is the in-flight trial cap; <= 0 means 1 (strictly serial,
	// in expansion order — the bit-compatible default).
	Parallel int
	// Budget is the thread-token pool; <= 0 means GOMAXPROCS. A trial
	// needing more tokens than the whole budget is clamped to it (it then
	// runs alone).
	Budget int
	// OnProgress, when set, receives one event per completed trial. Calls
	// are serialized.
	OnProgress func(Progress)

	// Deadline is the default per-trial watchdog deadline, applied to every
	// config that doesn't set its own. Zero leaves configs as they are
	// (no watchdog unless the config arms one).
	Deadline time.Duration
	// Retries is how many times a failed trial is re-executed before it is
	// quarantined; 0 means fail on the first error. Trials are deterministic,
	// so retries mainly cover scheduling-sensitive faults (a wedge needs the
	// goroutine interleaving to line up) and host-side flakes.
	Retries int
	// Backoff is the sleep before the first retry (doubling per attempt);
	// <= 0 means 50ms.
	Backoff time.Duration
	// Faults is the default fault plan, applied to every config that doesn't
	// carry its own. Plans change trial keys (a faulted trial is a different
	// experiment), so the default is applied before any cache lookup.
	Faults []bench.FaultSpec

	// Cost is the cost model used by the Parallel > 1 scheduler. Nil builds
	// a fresh model per Run, seeded from Store's measured elapsed times;
	// supply one to share measurements across Runs.
	Cost *CostModel
	// Schedule selects the Parallel > 1 dispatch order: "" (default) is
	// cost-ordered — pending trials dispatched in descending estimated cost
	// (longest-processing-time-first), minimizing sweep makespan on
	// heterogeneous grids; ScheduleFIFO keeps expansion order. Either order
	// gets the same budget-aware backfill. With Parallel <= 1 trials always
	// run in strict expansion order regardless of Schedule — that ordering
	// is the bit-compatibility contract the golden baselines pin.
	Schedule string

	mu          sync.Mutex
	executed    int
	cached      int
	quarantined int
}

// Counts reports the cumulative executed/cached trial counts across every
// Run on this runner.
func (r *Runner) Counts() (executed, cached int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed, r.cached
}

// Quarantines reports the cumulative permanently-failed trial count across
// every Run on this runner (fresh quarantines and cached quarantine hits).
func (r *Runner) Quarantines() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.quarantined
}

// runTrial is the trial executor, a variable so resilience tests can swap
// in doubles that panic, fail N times, or wedge.
var runTrial = bench.RunTrial

// runTrialSafe converts a panicking trial into an error, so one panicking
// configuration cannot kill the whole sweep's process.
func runTrialSafe(cfg bench.WorkloadConfig) (tr bench.TrialResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("grid: trial panicked: %v", p)
		}
	}()
	return runTrial(cfg)
}

// Execute is the shared per-trial path of the in-process runner and of fleet
// workers: run cfg verbatim with panic recovery, retry with seeded-jitter
// doubling backoff up to the runner's Retries budget, and return the trial's
// record — a quarantine record when every attempt failed — with the number of
// attempts it took. cfg must already be effective (ExpandTasks applied the
// defaults): re-applying them here could silently change TrialKeys.
//
// The backoff sleep is context-cancellable: an aborted sweep (or a fleet
// worker told to stop) gets ctx.Err() and no record, since a failure
// interrupted mid-retry was never final. The jitter stream is seeded from the
// trial's own seed, so retry timing is as reproducible as the trial itself
// while distinct trials never retry in lockstep. Execute touches neither the
// store nor the runner's counters; callers own persistence and accounting.
// A recorded trial keeps its timeline Recorder on the returned record's Trial
// (such records are never stored).
func (r *Runner) Execute(ctx context.Context, cfg bench.WorkloadConfig) (results.Record, int, error) {
	attempts := 1 + r.Retries
	if attempts < 1 {
		attempts = 1
	}
	bo := NewBackoff(r.Backoff, cfg.Seed)
	var (
		tr   bench.TrialResult
		terr error
	)
	n := 0
	for n < attempts {
		tr, terr = runTrialSafe(cfg)
		n++
		if terr == nil {
			break
		}
		if n < attempts {
			if err := bo.Sleep(ctx); err != nil {
				return results.Record{}, n, err
			}
		}
	}
	if terr != nil {
		return results.NewQuarantine(cfg, tr, terr), n, nil
	}
	rec := results.NewRecord(cfg, tr)
	rec.Trial.Recorder = tr.Recorder
	return rec, n, nil
}

// TrialTask is one expanded per-trial unit of work: the effective config
// (runner defaults applied, seed chained) plus the indices tying it back to
// the input config list for summary assembly.
type TrialTask struct {
	CfgIdx, TrialIdx int
	Cfg              bench.WorkloadConfig
}

// ExpandTasks applies the runner-level default fault plan and watchdog
// deadline to each config, then expands the RunTrials seed-chain convention
// (trials >= 1 chains seeds; trials <= 0 uses each config's seed verbatim)
// into per-trial tasks. It returns the effective configs alongside the
// tasks. This is the claim-source contract shared by the in-process Runner
// and the fleet coordinator: both must derive identical task lists — and
// therefore identical TrialKeys — from the same spec, or distributed caching
// would be unsound. Defaults land here, before any key computation, because
// fault plans are hashed into keys.
func ExpandTasks(cfgs []bench.WorkloadConfig, trials int, defFaults []bench.FaultSpec, defDeadline time.Duration) ([]bench.WorkloadConfig, []TrialTask) {
	eff := make([]bench.WorkloadConfig, len(cfgs))
	var tasks []TrialTask
	for i, cfg := range cfgs {
		if len(cfg.Faults) == 0 && len(defFaults) > 0 {
			cfg.Faults = defFaults
		}
		if cfg.Deadline == 0 {
			cfg.Deadline = defDeadline
		}
		eff[i] = cfg
		seeds := []uint64{cfg.Seed}
		if trials >= 1 {
			seeds = bench.TrialSeeds(cfg.Seed, trials)
		}
		for j, seed := range seeds {
			c := cfg
			c.Seed = seed
			tasks = append(tasks, TrialTask{CfgIdx: i, TrialIdx: j, Cfg: c})
		}
	}
	return eff, tasks
}

// Run executes one batch with the GridFunc contract (bench.GridFunc):
// trials >= 1 runs the RunTrials seed chain per config, trials <= 0 runs a
// single trial per config with the seed used verbatim. Summaries are
// returned in input order regardless of execution order.
func (r *Runner) Run(cfgs []bench.WorkloadConfig, trials int) ([]bench.Summary, error) {
	return r.RunContext(context.Background(), cfgs, trials)
}

// RunContext is Run with cancellation: when ctx is done the dispatcher stops
// launching trials and in-flight retry backoffs abort immediately, so an
// interrupted sweep returns as soon as its running trials finish (trials
// themselves are not preemptible mid-measurement — the per-trial watchdog is
// the bound on those). The store still holds every trial completed before
// the cancellation, so the sweep resumes where it stopped.
//
// Dispatch is one loop. Cache hits resolve first, in expansion order (no
// slot, no tokens, no goroutine). The remaining trials then run in
// descending estimated cost — longest-processing-time-first, minimizing
// makespan on heterogeneous grids — when Parallel > 1 and Schedule is not
// ScheduleFIFO, and in expansion order otherwise. Each dispatch takes the
// first pending trial whose tokens are free right now, so slots stay busy
// instead of idling behind a big trial; if none fits it blocks on the head.
// With one slot every token is free at each dispatch, so Parallel <= 1 runs
// strictly in expansion order — the bit-compatibility contract the golden
// baselines pin. Results are index-addressed per task, so output order is
// unaffected by execution order.
func (r *Runner) RunContext(ctx context.Context, cfgs []bench.WorkloadConfig, trials int) ([]bench.Summary, error) {
	parallel := r.Parallel
	if parallel <= 0 {
		parallel = 1
	}
	budget := r.Budget
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}

	// Runner-level defaults apply at task-build time, inside ExpandTasks.
	// The fault plan must land before any key computation (plans are hashed —
	// a faulted trial is a different experiment); the deadline is normalized
	// out of keys, so its placement is free.
	eff, tasks := ExpandTasks(cfgs, trials, r.Faults, r.Deadline)
	perCfg := make([][]bench.TrialResult, len(cfgs))
	okCfg := make([][]bool, len(cfgs))
	for i := range cfgs {
		n := 1
		if trials >= 1 {
			n = trials
		}
		perCfg[i] = make([]bench.TrialResult, n)
		okCfg[i] = make([]bool, n)
	}
	total := len(tasks)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards the per-Run counters/firstErr and serializes OnProgress
		done     int
		executed int
		cached   int
		failed   int
		firstErr error // infrastructure failures only (store append) — trial failures quarantine instead
	)
	slots := make(chan struct{}, parallel)
	tokens := newWeighted(budget)
	weight := func(cfg bench.WorkloadConfig) int {
		return min(max(cfg.Threads, 1), budget)
	}
	finish := func(t TrialTask, fromCache bool, ferr error, attempts int) {
		mu.Lock()
		done++
		switch {
		case ferr != nil:
			failed++
		case fromCache:
			cached++
		default:
			executed++
		}
		// Progress counters are per-Run (Executed+Cached+Failed == Done);
		// the runner-lifetime totals behind Counts() update separately.
		p := Progress{
			Done: done, Total: total,
			Executed: executed, Cached: cached, Failed: failed,
			Key: results.KeyOf(t.Cfg), Config: t.Cfg, FromCache: fromCache,
			Err: ferr, Attempts: attempts,
		}
		r.mu.Lock()
		switch {
		case ferr != nil:
			r.quarantined++
		case fromCache:
			r.cached++
		default:
			r.executed++
		}
		r.mu.Unlock()
		if r.OnProgress != nil {
			r.OnProgress(p)
		}
		mu.Unlock()
	}
	stopped := func() bool {
		mu.Lock()
		stop := firstErr != nil
		mu.Unlock()
		return stop || ctx.Err() != nil
	}

	// Resolve cache hits against the store, in expansion order. A cached
	// quarantine record is a hit too: a resumed sweep skips the key instead
	// of re-wedging on it.
	type pendingTrial struct {
		t   TrialTask
		est float64
	}
	pending := make([]pendingTrial, 0, len(tasks))
	for _, t := range tasks {
		if stopped() {
			break
		}
		var recs []results.Record
		if r.Store != nil && !t.Cfg.Record {
			recs = r.Store.Get(results.KeyOf(t.Cfg))
		}
		switch {
		case len(recs) == 0:
			pending = append(pending, pendingTrial{t: t})
		case recs[0].Quarantined:
			finish(t, true, fmt.Errorf("grid: %s: quarantined: %s",
				results.Label(t.Cfg), recs[0].Error), 0)
		default:
			perCfg[t.CfgIdx][t.TrialIdx] = recs[0].Trial
			okCfg[t.CfgIdx][t.TrialIdx] = true
			finish(t, true, nil, 0)
		}
	}
	// model feeds measured elapsed times back into cost estimates. Only the
	// cost-ordered path reads it, so expansion-order runs skip the store
	// scan NewCostModel does.
	var model *CostModel
	if parallel > 1 && r.Schedule != ScheduleFIFO {
		model = r.Cost
		if model == nil {
			model = NewCostModel(r.Store)
		}
		for i := range pending {
			pending[i].est = model.Estimate(pending[i].t.Cfg)
		}
		// Stable sort: equal-cost trials keep expansion order, so scheduling
		// is deterministic given the same model state.
		sort.SliceStable(pending, func(i, j int) bool { return pending[i].est > pending[j].est })
	}

	// execute is the per-trial goroutine body; the caller holds a slot and
	// w tokens, which it releases.
	execute := func(t TrialTask, w int) {
		defer wg.Done()
		defer func() {
			tokens.release(w)
			<-slots
		}()
		// Trial failures (watchdog aborts, panics) come back as quarantine
		// records — the sweep never stops for one bad configuration. A
		// canceled backoff comes back as ctx.Err(): the interrupted trial is
		// not quarantined (its failure was never final).
		rec, n, err := r.Execute(ctx, t.Cfg)
		if err != nil {
			return
		}
		if model != nil && !rec.Quarantined {
			model.Observe(t.Cfg, rec.ElapsedNanos)
		}
		if r.Store != nil && !t.Cfg.Record {
			if err := r.Store.Append(rec); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("grid: %s: %w", results.Label(t.Cfg), err)
				}
				mu.Unlock()
				return
			}
		}
		if rec.Quarantined {
			finish(t, false, fmt.Errorf("grid: %s: %s", results.Label(t.Cfg), rec.Error), n)
			return
		}
		perCfg[t.CfgIdx][t.TrialIdx] = rec.Trial
		okCfg[t.CfgIdx][t.TrialIdx] = true
		finish(t, false, nil, n)
	}
	for len(pending) > 0 && !stopped() {
		slots <- struct{}{}
		// available() is advisory — releases race with this read — so the
		// blocking acquire below stays the correctness point; a stale read
		// only costs a less-perfect backfill choice.
		free := tokens.available()
		pick := 0
		for i, p := range pending {
			if weight(p.t.Cfg) <= free {
				pick = i
				break
			}
		}
		t := pending[pick].t
		pending = append(pending[:pick], pending[pick+1:]...)
		w := weight(t.Cfg)
		tokens.acquire(w)
		wg.Add(1)
		go execute(t, w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if failed == total && total > 0 {
		// Nothing at all succeeded: the sweep produced no data, which is an
		// error (partial failure is not — quarantines carry the details).
		first := results.Label(tasks[0].Cfg)
		return nil, fmt.Errorf("grid: all %d trials failed (first: %s)", total, first)
	}

	out := make([]bench.Summary, len(cfgs))
	for i, cfg := range eff {
		// Summaries aggregate only successful trials; a config whose every
		// trial was quarantined yields a zero summary carrying the config,
		// so output stays index-aligned with the input.
		good := perCfg[i][:0:0]
		for j, tr := range perCfg[i] {
			if okCfg[i][j] {
				good = append(good, tr)
			}
		}
		if len(good) == 0 {
			out[i] = bench.Summary{Cfg: cfg}
			continue
		}
		out[i] = bench.SummarizeTrials(cfg, good)
	}
	return out, nil
}

// GridFunc adapts the runner to bench.Options.RunGrid, the injection point
// the experiment sweeps route through.
func (r *Runner) GridFunc() bench.GridFunc { return r.Run }

// RunSpec expands and validates a spec, then runs it. Spec.Trials <= 0 is
// normalized to 1 here (with the RunTrials seed chain, matching the Spec
// doc); the verbatim-seed trials<=0 convention belongs to Run's GridFunc
// contract only.
func (r *Runner) RunSpec(s Spec) ([]bench.Summary, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	trials := s.Trials
	if trials <= 0 {
		trials = 1
	}
	return r.Run(s.Expand(), trials)
}
