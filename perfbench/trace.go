package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/clock"
	"repro/internal/ds"
	"repro/internal/simalloc"
	"repro/internal/smr"
)

// The traced trial assembles the same allocator + reclaimer + set stack
// RunTrial builds, from the layers' public constructors, with a timing
// decorator at each layer boundary. Spans are per simulated thread (a tid
// is driven by one goroutine), so the decorators share no state across
// goroutines and take two clock reads per call.

// span is one boundary's call count and inclusive time.
type span struct{ calls, ns int64 }

func (s *span) add(ns int64) { s.calls++; s.ns += ns }

func (s *span) merge(o span) { s.calls += o.calls; s.ns += o.ns }

// tidTrace is one simulated thread's spans.
type tidTrace struct {
	insert, delete, contains span
	insertHit, deleteHit     int64
	beginOp, endOp, retire   span
	onAlloc                  span
	alloc, free              span
	// allocInSMR is allocator time spent inside reclaimer calls (batch
	// frees, amortized drains), so it is subtracted from smr's self time
	// rather than ds's.
	allocInSMR int64
	// harness is the op loop's own measured work: drawing op streams and
	// yielding at batch edges.
	harness int64
	// window is the thread's measured wall time.
	window int64
	inSMR  bool
	_      [64]byte // keep neighbouring threads' counters off one cache line
}

func (t *tidTrace) merge(o *tidTrace) {
	for _, p := range []struct{ dst, src *span }{
		{&t.insert, &o.insert}, {&t.delete, &o.delete}, {&t.contains, &o.contains},
		{&t.beginOp, &o.beginOp}, {&t.endOp, &o.endOp}, {&t.retire, &o.retire},
		{&t.onAlloc, &o.onAlloc}, {&t.alloc, &o.alloc}, {&t.free, &o.free},
	} {
		p.dst.merge(*p.src)
	}
	t.insertHit += o.insertHit
	t.deleteHit += o.deleteHit
	t.allocInSMR += o.allocInSMR
	t.harness += o.harness
	t.window += o.window
}

// tracedAlloc times simalloc.Allocator.Alloc and Free.
type tracedAlloc struct {
	simalloc.Allocator
	t []tidTrace
}

func (a *tracedAlloc) Alloc(tid int, size int) *simalloc.Object {
	t0 := clock.Now()
	o := a.Allocator.Alloc(tid, size)
	a.account(tid, &a.t[tid].alloc, clock.Now()-t0)
	return o
}

func (a *tracedAlloc) Free(tid int, o *simalloc.Object) {
	t0 := clock.Now()
	a.Allocator.Free(tid, o)
	a.account(tid, &a.t[tid].free, clock.Now()-t0)
}

func (a *tracedAlloc) account(tid int, s *span, ns int64) {
	s.add(ns)
	if tt := &a.t[tid]; tt.inSMR {
		tt.allocInSMR += ns
	}
}

// guardSource is the reclaimer's zero-dispatch protection path; the trees
// use it when the reclaimer they are given offers it.
type guardSource interface{ Guard(tid int) *smr.Guard }

// tracedReclaimer times smr.Reclaimer's per-operation calls and forwards
// Guard, so the trees keep the zero-dispatch protection path (hp's Guard
// work therefore stays inside the ds spans).
type tracedReclaimer struct {
	smr.Reclaimer
	guards guardSource
	t      []tidTrace
}

func (r *tracedReclaimer) Guard(tid int) *smr.Guard { return r.guards.Guard(tid) }

func (r *tracedReclaimer) enter(tid int) int64 {
	r.t[tid].inSMR = true
	return clock.Now()
}

func (r *tracedReclaimer) leave(tid int, s *span, t0 int64) {
	s.add(clock.Now() - t0)
	r.t[tid].inSMR = false
}

func (r *tracedReclaimer) BeginOp(tid int) {
	t0 := r.enter(tid)
	r.Reclaimer.BeginOp(tid)
	r.leave(tid, &r.t[tid].beginOp, t0)
}

func (r *tracedReclaimer) EndOp(tid int) {
	t0 := r.enter(tid)
	r.Reclaimer.EndOp(tid)
	r.leave(tid, &r.t[tid].endOp, t0)
}

func (r *tracedReclaimer) Retire(tid int, o *simalloc.Object) {
	t0 := r.enter(tid)
	r.Reclaimer.Retire(tid, o)
	r.leave(tid, &r.t[tid].retire, t0)
}

func (r *tracedReclaimer) OnAlloc(tid int, o *simalloc.Object) {
	t0 := r.enter(tid)
	r.Reclaimer.OnAlloc(tid, o)
	r.leave(tid, &r.t[tid].onAlloc, t0)
}

// tracedSet times ds.Set's operations and counts their useful outcomes.
type tracedSet struct {
	ds.Set
	t []tidTrace
}

func (s *tracedSet) Insert(tid int, key int64) bool {
	t0 := clock.Now()
	ok := s.Set.Insert(tid, key)
	tt := &s.t[tid]
	tt.insert.add(clock.Now() - t0)
	if ok {
		tt.insertHit++
	}
	return ok
}

func (s *tracedSet) Delete(tid int, key int64) bool {
	t0 := clock.Now()
	ok := s.Set.Delete(tid, key)
	tt := &s.t[tid]
	tt.delete.add(clock.Now() - t0)
	if ok {
		tt.deleteHit++
	}
	return ok
}

func (s *tracedSet) Contains(tid int, key int64) bool {
	t0 := clock.Now()
	ok := s.Set.Contains(tid, key)
	s.t[tid].contains.add(clock.Now() - t0)
	return ok
}

// tracedTrial is one traced trial's measurements.
type tracedTrial struct {
	ops      int64
	cpuPerOp float64
	t        tidTrace // summed over threads, window only
	alloc    simalloc.Stats
	smr      smr.Stats // window deltas; PeakLimbo is the trial's peak
	problems []string
}

// runTraced runs cfg (an unphased, fault-free, closed-loop FixedOps trial)
// through the decorated stack: prefill to half the key range, run the
// scenario's op streams exactly as RunTrial's workers do, tear down.
func runTraced(cfg bench.WorkloadConfig) (tracedTrial, error) {
	var out tracedTrial
	tt := make([]tidTrace, cfg.Threads)
	acfg := simalloc.DefaultConfig(cfg.Threads)
	base, err := simalloc.New(cfg.Allocator, acfg)
	if err != nil {
		return out, err
	}
	alloc := &tracedAlloc{Allocator: base, t: tt}
	var stopped atomic.Bool
	rcfg := smr.DefaultConfig(alloc, cfg.Threads)
	rcfg.BatchSize, rcfg.DrainRate, rcfg.TokenCheckK = cfg.BatchSize, cfg.DrainRate, cfg.TokenCheckK
	rcfg.Stopped = stopped.Load
	inner, err := smr.New(cfg.Reclaimer, rcfg)
	if err != nil {
		return out, err
	}
	gs, ok := inner.(guardSource)
	if !ok {
		return out, fmt.Errorf("reclaimer %s has no Guard path", cfg.Reclaimer)
	}
	rec := &tracedReclaimer{Reclaimer: inner, guards: gs, t: tt}
	set0, err := ds.New(cfg.DataStructure, alloc, rec)
	if err != nil {
		return out, err
	}
	set := &tracedSet{Set: set0, t: tt}
	wl, err := bench.NewScenario(cfg.Scenario)
	if err != nil {
		return out, err
	}

	prefill(set, cfg)
	clear(tt) // spans cover the measured window only
	a0, s0 := base.Stats(), inner.Stats()
	keys := make([]bench.KeyDist, cfg.Threads)
	mixes := make([]bench.OpMix, cfg.Threads)
	for tid := range keys {
		keys[tid] = wl.KeyDist(&cfg, tid)
		mixes[tid] = wl.OpMix(&cfg, tid)
	}
	stride := 4 * opBatch
	if cfg.Threads > runtime.GOMAXPROCS(0) {
		stride = opBatch
	}
	c0 := processCPU()
	var wg sync.WaitGroup
	for tid := 0; tid < cfg.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			drive(set, &tt[tid], tid, cfg.FixedOps, stride, keys[tid], mixes[tid])
		}(tid)
	}
	wg.Wait()
	stopped.Store(true)
	a1, s1 := base.Stats(), inner.Stats()
	for i := range tt {
		out.t.merge(&tt[i])
	}
	out.ops = out.t.insert.calls + out.t.delete.calls + out.t.contains.calls
	out.alloc = statsDelta(a0, a1)
	out.smr = smr.Stats{Epochs: s1.Epochs - s0.Epochs, StallNanos: s1.StallNanos - s0.StallNanos, PeakLimbo: s1.PeakLimbo}
	out.problems = trialProblems(cfg, fmt.Sprintf("traced %s seed %d", cfg.Reclaimer, cfg.Seed),
		nil, out.ops, a1, s1)
	for tid := 0; tid < cfg.Threads; tid++ {
		inner.Drain(tid)
	}
	out.cpuPerOp = float64(processCPU()-c0) / float64(out.ops)
	return out, nil
}

func statsDelta(a, b simalloc.Stats) simalloc.Stats {
	return simalloc.Stats{
		FreeNanos: b.FreeNanos - a.FreeNanos, FlushNanos: b.FlushNanos - a.FlushNanos,
		LockNanos: b.LockNanos - a.LockNanos, AllocNanos: b.AllocNanos - a.AllocNanos,
		Frees: b.Frees - a.Frees, Allocs: b.Allocs - a.Allocs, RemoteFrees: b.RemoteFrees - a.RemoteFrees,
		Flushes: b.Flushes - a.Flushes, FreshPages: b.FreshPages - a.FreshPages,
	}
}

// opBatch is the op-stream block size RunTrial's workers draw and yield on.
const opBatch = 64

// prefill inserts random keys from every thread until the set holds half
// the key range, the paper's steady-state size.
func prefill(set ds.Set, cfg bench.WorkloadConfig) {
	target := cfg.KeyRange / 2
	var wg sync.WaitGroup
	for tid := 0; tid < cfg.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			x := cfg.Seed + uint64(tid)*0x517cc1b727220a95 + 11
			for set.Size() < target {
				for i := 0; i < opBatch; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					set.Insert(tid, int64((x>>17)%uint64(cfg.KeyRange)))
				}
				runtime.Gosched()
			}
		}(tid)
	}
	wg.Wait()
}

// drive is one simulated thread's measured loop, shaped like RunTrial's
// worker: draw a block of keys and op kinds, run it, yield every stride ops.
func drive(set *tracedSet, tt *tidTrace, tid, fixedOps, stride int, kd bench.KeyDist, om bench.OpMix) {
	var keys [opBatch]int64
	var kinds [opBatch]bench.Op
	start := clock.Now()
	sinceYield := 0
	for done := 0; done < fixedOps; {
		n := min(opBatch, fixedOps-done)
		h0 := clock.Now()
		for i := 0; i < n; i++ {
			keys[i] = kd.Next()
		}
		for i := 0; i < n; i++ {
			kinds[i] = om.Next()
		}
		tt.harness += clock.Now() - h0
		for i := 0; i < n; i++ {
			switch kinds[i] {
			case bench.OpInsert:
				set.Insert(tid, keys[i])
			case bench.OpDelete:
				set.Delete(tid, keys[i])
			default:
				set.Contains(tid, keys[i])
			}
		}
		done += n
		if sinceYield += n; sinceYield >= stride {
			sinceYield = 0
			h1 := clock.Now()
			runtime.Gosched()
			tt.harness += clock.Now() - h1
		}
	}
	tt.window = clock.Now() - start
}

// ledger accumulates traced trials of one reclaimer (or of all).
type ledger struct {
	ops       int64
	t         tidTrace
	alloc     simalloc.Stats
	smr       smr.Stats
	peakLimbo sample
}

func (l *ledger) add(tr tracedTrial) {
	l.ops += tr.ops
	l.t.merge(&tr.t)
	l.alloc = addAllocStats(l.alloc, tr.alloc)
	l.smr.Epochs += tr.smr.Epochs
	l.smr.StallNanos += tr.smr.StallNanos
	l.peakLimbo = append(l.peakLimbo, float64(tr.smr.PeakLimbo))
}

func addAllocStats(a, b simalloc.Stats) simalloc.Stats {
	a.FreeNanos += b.FreeNanos
	a.FlushNanos += b.FlushNanos
	a.LockNanos += b.LockNanos
	a.AllocNanos += b.AllocNanos
	a.Frees += b.Frees
	a.Allocs += b.Allocs
	a.RemoteFrees += b.RemoteFrees
	a.Flushes += b.Flushes
	a.FreshPages += b.FreshPages
	return a
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func perCall(s span) float64 { return ratio(float64(s.ns), float64(s.calls)) }

// report writes the ledger's layer metrics. The window's thread-time is
// partitioned into ds, smr and simalloc self time, the allocator's modeled
// time, the harness's measured work, and a residual nothing claimed (loop
// dispatch and the clock reads between spans) — shown, not folded in.
func (l *ledger) report(r *report, sfx string, top bool) {
	t := &l.t
	T := float64(t.window)
	dsIncl := float64(t.insert.ns + t.delete.ns + t.contains.ns)
	smrIncl := float64(t.beginOp.ns + t.endOp.ns + t.retire.ns + t.onAlloc.ns)
	allocIncl := float64(t.alloc.ns + t.free.ns)
	modeled := float64(l.alloc.AllocNanos + l.alloc.FreeNanos)
	dsSelf := dsIncl - smrIncl - (allocIncl - float64(t.allocInSMR))
	smrSelf := smrIncl - float64(t.allocInSMR)
	allocSelf := allocIncl - modeled
	ops := float64(l.ops)

	r.set("smr.beginop_ns"+sfx, perCall(t.beginOp), int(t.beginOp.calls))
	r.set("smr.endop_ns"+sfx, perCall(t.endOp), int(t.endOp.calls))
	r.set("smr.retire_ns"+sfx, perCall(t.retire), int(t.retire.calls))
	r.set("smr.self_frac"+sfx, ratio(smrSelf, T), 0)
	r.set("smr.epochs_per_kop"+sfx, ratio(1000*float64(l.smr.Epochs), ops), 0)
	r.set("smr.peak_limbo"+sfx, l.peakLimbo.median(), len(l.peakLimbo))
	r.set("smr.stall_frac"+sfx, ratio(float64(l.smr.StallNanos), T), 0)
	r.set("simalloc.alloc_ns"+sfx, perCall(t.alloc), int(t.alloc.calls))
	r.set("simalloc.free_ns"+sfx, perCall(t.free), int(t.free.calls))
	r.set("simalloc.self_frac"+sfx, ratio(allocSelf, T), 0)
	r.set("simalloc.modeled_frac"+sfx, ratio(modeled, T), 0)
	r.set("simalloc.lock_wait_frac"+sfx, ratio(float64(l.alloc.LockNanos), T), 0)
	r.set("simalloc.flushes_per_kfree"+sfx, ratio(1000*float64(l.alloc.Flushes), float64(l.alloc.Frees)), 0)
	r.set("simalloc.remote_free_frac"+sfx, ratio(float64(l.alloc.RemoteFrees), float64(l.alloc.Frees)), 0)
	r.set("simalloc.fresh_pages_per_kop"+sfx, ratio(1000*float64(l.alloc.FreshPages), ops), 0)
	if !top {
		return
	}
	r.set("ds.insert_ns", perCall(t.insert), int(t.insert.calls))
	r.set("ds.delete_ns", perCall(t.delete), int(t.delete.calls))
	r.set("ds.contains_ns", perCall(t.contains), int(t.contains.calls))
	r.set("ds.self_frac", ratio(dsSelf, T), 0)
	r.set("ds.insert_hit", ratio(float64(t.insertHit), float64(t.insert.calls)), int(t.insert.calls))
	r.set("ds.delete_hit", ratio(float64(t.deleteHit), float64(t.delete.calls)), int(t.delete.calls))
	harness := float64(t.harness)
	r.set("bench.self_frac", ratio(harness, T), 0)
	r.set("trace.residual_frac", ratio(T-dsIncl-harness, T), 0)
}
