package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/simalloc"
	"repro/internal/smr"
)

// trialWorkload is a workload of repeated single trials on one stack.
type trialWorkload struct {
	scenario   string
	reclaimers []string // alternated trial by trial
	fixedOps   int      // per simulated thread
}

var trialWorkloads = map[string]trialWorkload{
	// The paper scenario on the Table 2 pair: every op allocates or retires
	// a 240-byte abtree node, loading the ds update path, smr's retire,
	// batch-free and amortized-free paths, and jemalloc's flush and
	// remote-free paths.
	"update": {scenario: "paper", reclaimers: []string{"debra", "debra_af"}, fixedOps: 100000},
	// 90% Contains under hazard pointers: traversal and per-node protection
	// do the work and freeing does little, so allocator and reclaimer
	// changes should leave it flat.
	"read-mostly": {scenario: "read_mostly", reclaimers: []string{"hp"}, fixedOps: 100000},
}

// batchTrials is how many consecutive trials form one "sweep" of a trial
// workload, the unit sweep_s and sweep_cpu_s time there.
const batchTrials = 4

func trialConfig(w trialWorkload, reclaimer string, seed uint64) bench.WorkloadConfig {
	cfg := bench.DefaultWorkload(threadCap())
	cfg.Scenario = w.scenario
	cfg.Reclaimer = reclaimer
	cfg.FixedOps = w.fixedOps
	cfg.Seed = seed
	return cfg
}

// trialProblems lists the ways one trial's output is wrong.
func trialProblems(cfg bench.WorkloadConfig, label string, err error, ops int64, a simalloc.Stats, s smr.Stats) []string {
	var p []string
	if err != nil {
		p = append(p, fmt.Sprintf("%s: %v", label, err))
	}
	if want := int64(cfg.Threads) * int64(cfg.FixedOps); ops != want {
		p = append(p, fmt.Sprintf("%s: %d ops, want %d", label, ops, want))
	}
	if s.Retired != s.Freed+s.Limbo {
		p = append(p, fmt.Sprintf("%s: retired %d != freed %d + limbo %d", label, s.Retired, s.Freed, s.Limbo))
	}
	if a.Frees != s.Freed {
		p = append(p, fmt.Sprintf("%s: allocator frees %d != reclaimer frees %d", label, a.Frees, s.Freed))
	}
	return p
}

func checkTrial(cfg bench.WorkloadConfig, tr bench.TrialResult, err error) []string {
	if err == nil && tr.Error != "" {
		err = fmt.Errorf("trial error %s", tr.Error)
	}
	label := fmt.Sprintf("%s/%s/%s/%s t%d seed %d", cfg.Scenario, cfg.DataStructure, cfg.Allocator,
		cfg.Reclaimer, cfg.Threads, cfg.Seed)
	return trialProblems(cfg, label, err, tr.Ops, tr.Alloc, tr.SMR)
}

// untracedTrial is one bench.RunTrial call, split at the end of prefill.
type untracedTrial struct {
	setup, window time.Duration
	elapsed       time.Duration
	setupCPU      time.Duration // process CPU from the call to the end of prefill
	opsPerSec     float64
	cpuPerOp      float64 // process CPU from end of prefill to return, per op
	heapBPerOp    float64 // Go heap bytes allocated over the same span, per op
	ops           int64
}

func runUntraced(cfg bench.WorkloadConfig, gd *goDelta, r *report) untracedTrial {
	var preWall time.Time
	var preCPU time.Duration
	var preGo goMark
	t0, c0 := time.Now(), processCPU()
	bench.OnFirstPrefillDone(func() {
		preGo = markGo()
		preWall, preCPU = time.Now(), processCPU()
	})
	tr, err := bench.RunTrial(cfg)
	cpu := processCPU()
	postGo := markGo()
	r.trial(checkTrial(cfg, tr, err))
	if preWall.IsZero() { // the trial failed before its window; nothing to time
		return untracedTrial{}
	}
	if gd != nil {
		gd.add(preGo, postGo)
	}
	ops := float64(max(tr.Ops, 1))
	return untracedTrial{
		setup:      preWall.Sub(t0),
		window:     tr.Wall,
		setupCPU:   preCPU - c0,
		elapsed:    time.Duration(tr.ElapsedNanos),
		opsPerSec:  tr.OpsPerSec,
		cpuPerOp:   float64(cpu-preCPU) / ops,
		heapBPerOp: float64(postGo.allocBytes-preGo.allocBytes) / ops,
		ops:        tr.Ops,
	}
}

// trialSamples groups per-trial observations by reclaimer.
type trialSamples struct {
	cpuPerOp, opsPerSec, elapsedMs, setupS, heapB map[string]sample
}

func newTrialSamples() *trialSamples {
	return &trialSamples{map[string]sample{}, map[string]sample{}, map[string]sample{}, map[string]sample{}, map[string]sample{}}
}

func (s *trialSamples) add(rec string, u untracedTrial) {
	if u.ops == 0 {
		return
	}
	s.cpuPerOp[rec] = append(s.cpuPerOp[rec], u.cpuPerOp)
	s.opsPerSec[rec] = append(s.opsPerSec[rec], u.opsPerSec)
	s.elapsedMs[rec] = append(s.elapsedMs[rec], float64(u.elapsed)/1e6)
	s.setupS[rec] = append(s.setupS[rec], u.setupCPU.Seconds())
	s.heapB[rec] = append(s.heapB[rec], u.heapBPerOp)
}

func (s *trialSamples) reportWall(r *report) {
	r.wallTiming("wall.trial_ms.p50", pooled(s.elapsedMs))
	r.wallTiming("wall.simops_per_s", pooled(s.opsPerSec))
}

func runTrialWorkload(o options, r *report) error {
	w := trialWorkloads[o.workload]
	seeds := bench.TrialSeeds(o.seed, 1<<14)
	if o.trace {
		return runTrialWorkloadTraced(o, w, seeds, r)
	}
	s := newTrialSamples()
	var batchWall, batchCPU sample
	start := time.Now()
	for b := 0; (b+1)*batchTrials <= len(seeds) && (b == 0 || time.Since(start) < o.seconds); b++ {
		w0, c0 := time.Now(), processCPU()
		for i := b * batchTrials; i < (b+1)*batchTrials; i++ {
			rec := w.reclaimers[i%len(w.reclaimers)]
			s.add(rec, runUntraced(trialConfig(w, rec, seeds[i]), nil, r))
		}
		batchWall = append(batchWall, time.Since(w0).Seconds())
		batchCPU = append(batchCPU, (processCPU() - c0).Seconds())
	}
	n := groupCount(s.cpuPerOp)
	if n == 0 {
		return fmt.Errorf("no trial completed")
	}
	r.set("cpu_ns_per_op", groupMedian(s.cpuPerOp), n)
	r.set("setup_s", groupMedian(s.setupS), n)
	r.set("sweep_cpu_s", batchCPU.median(), len(batchCPU))
	r.set("host_alloc_b_per_op", groupMedian(s.heapB), n)
	s.reportWall(r)
	r.wallTiming("wall.sweep_s", batchWall)
	return nil
}

// runTrialWorkloadTraced alternates an untraced RunTrial with a traced run
// of the same configuration and seed, so host drift hits both alike: the
// untraced half gives the go.* metrics and the baseline for the tracing
// overhead, the traced half the layer ledger.
func runTrialWorkloadTraced(o options, w trialWorkload, seeds []uint64, r *report) error {
	plain := newTrialSamples()
	traced := map[string]sample{}
	all := &ledger{}
	per := map[string]*ledger{}
	var gd goDelta
	var ops int64
	var setupMs, windowMs, downMs, overMs sample
	start := time.Now()
	for i := 0; i < len(seeds) && (i == 0 || time.Since(start) < o.seconds); i++ {
		rec := w.reclaimers[i%len(w.reclaimers)]
		cfg := trialConfig(w, rec, seeds[i])
		u := runUntraced(cfg, &gd, r)
		plain.add(rec, u)
		ops += u.ops
		if u.ops > 0 {
			ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
			setupMs = append(setupMs, ms(u.setup))
			windowMs = append(windowMs, ms(u.window))
			downMs = append(downMs, ms(u.elapsed-u.setup-u.window))
			overMs = append(overMs, ms(u.elapsed-u.window))
		}
		tr, err := runTraced(cfg)
		if err != nil {
			return err
		}
		r.trial(tr.problems)
		traced[rec] = append(traced[rec], tr.cpuPerOp)
		all.add(tr)
		if per[rec] == nil {
			per[rec] = &ledger{}
		}
		per[rec].add(tr)
	}
	r.set("bench.setup_ms", setupMs.median(), len(setupMs))
	r.set("bench.window_ms", windowMs.median(), len(windowMs))
	r.set("bench.teardown_ms", downMs.median(), len(downMs))
	r.set("bench.overhead_ms", overMs.median(), len(overMs))
	all.report(r, "", true)
	for _, rec := range []string{"debra", "debra_af"} {
		if l := per[rec]; l != nil {
			l.report(r, "."+rec, false)
		}
	}
	base := groupMedian(plain.cpuPerOp)
	r.set("trace.overhead_pct", 100*ratio(groupMedian(traced)-base, base), groupCount(traced))
	reportGo(r, &gd, ops)
	plain.reportWall(r)
	return nil
}

// reportGo writes the go.* runtime metrics for ops simulated operations.
func reportGo(r *report, gd *goDelta, ops int64) {
	r.set("go.gc_cpu_frac", ratio(gd.gcCPU, gd.busyCPU), 0)
	r.set("go.allocs_per_op", ratio(float64(gd.allocObjects), float64(ops)), 0)
	r.set("go.gc_cycles", float64(gd.gcCycles), 0)
	r.set("go.sched_wait_p99_us", gd.schedWaitP99()*1e6, 0)
}
