package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/ds"
	"repro/internal/fleet"
	"repro/internal/grid"
	"repro/internal/results"
)

// sweepConfigs is the 108-trial grid both sweep and fleet run: the paper
// scenario over six reclaimers, every tree and every allocator model, at
// one and two threads, with cheap FixedOps trials. Per-trial cost is stack
// assembly, prefill into a cold allocator, teardown, dispatch and the
// store append, as in real sweeps.
func sweepConfigs(seed uint64) ([]bench.WorkloadConfig, error) {
	base := bench.DefaultWorkload(1)
	base.FixedOps = 2000
	base.KeyRange = 4096
	base.Seed = seed
	var threads []int
	for t := 1; t <= threadCap(); t++ {
		threads = append(threads, t)
	}
	spec := grid.Spec{
		Base:           base,
		Reclaimers:     []string{"debra", "debra_af", "hp", "token_af", "nbr", "ibr"},
		DataStructures: ds.Names(),
		Allocators:     grid.Allocators(),
		Threads:        threads,
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec.Expand(), nil
}

// sweepRep is one repetition's measurements.
type sweepRep struct {
	setup       time.Duration // process CPU
	wall        time.Duration
	cpu         time.Duration
	records     []results.Record
	cachedRerun time.Duration
	rpc         *rpcTimer // fleet, traced repetitions only
	duplicates  int
	storePath   string
	// goFrom and goTo bracket the sweep's runtime activity.
	goFrom, goTo goMark
}

// runSweepRep sets up a fresh on-disk store, runs the grid through
// grid.Runner (sweep) or a loopback coordinator with in-process workers
// (fleet), and checks the result: every expected key executed exactly
// once, every trial's output sound, and a cached re-run executing nothing.
func runSweepRep(o options, dir string, traced bool, r *report) (sweepRep, error) {
	var rep sweepRep
	rep.storePath = filepath.Join(dir, "store.jsonl")
	c0 := processCPU()
	store, err := results.Open(rep.storePath)
	if err != nil {
		return rep, err
	}
	defer store.Close()
	cfgs, err := sweepConfigs(o.seed)
	if err != nil {
		return rep, err
	}
	_, tasks := grid.ExpandTasks(cfgs, 0, nil, 0)
	want := map[string]bool{}
	for _, t := range tasks {
		want[results.KeyOf(t.Cfg)] = true
	}
	if o.workload == "sweep" {
		runner := &grid.Runner{Store: store, Parallel: threadCap()}
		rep.setup = processCPU() - c0
		rep.goFrom = markGo()
		c0, w0 := processCPU(), time.Now()
		if _, err := runner.Run(cfgs, 0); err != nil {
			return rep, err
		}
		rep.wall, rep.cpu = time.Since(w0), processCPU()-c0
		rep.goTo = markGo()
		executed, _ := runner.Counts()
		r.check(executed == len(tasks), "sweep executed %d trials, want %d", executed, len(tasks))
	} else {
		if traced {
			rep.rpc = newRPCTimer()
		}
		if err := runFleet(cfgs, store, c0, &rep); err != nil {
			return rep, err
		}
	}
	rep.records = store.Records()
	got := map[string]bool{}
	for _, rec := range rep.records {
		got[rec.Key] = true
		if rec.Quarantined {
			r.trial([]string{fmt.Sprintf("%s quarantined: %s", results.Label(rec.Config), rec.Error)})
			continue
		}
		r.trial(checkTrial(rec.Config, rec.Trial, nil))
	}
	r.check(len(rep.records) == len(tasks), "%s stored %d records, want %d", o.workload, len(rep.records), len(tasks))
	r.check(len(got) == len(tasks), "%s stored %d distinct keys, want %d", o.workload, len(got), len(tasks))
	for k := range want {
		if !got[k] {
			r.check(false, "%s is missing key %s of the sweep for seed %d", o.workload, k, o.seed)
			break
		}
	}
	// Re-running the finished grid against its store must execute nothing.
	rerun := &grid.Runner{Store: store, Parallel: threadCap()}
	w0 := time.Now()
	if _, err := rerun.Run(cfgs, 0); err != nil {
		return rep, err
	}
	rep.cachedRerun = time.Since(w0)
	executed, cached := rerun.Counts()
	r.check(executed == 0 && cached == len(tasks), "cached re-run executed %d, cached %d of %d", executed, cached, len(tasks))
	return rep, nil
}

// runFleet serves a coordinator over loopback HTTP and drains it with one
// in-process worker per CPU at default lease settings. The sweep ends when
// the coordinator has every trial; the workers are then waited for.
func runFleet(cfgs []bench.WorkloadConfig, store *results.Store, setupCPU0 time.Duration, rep *sweepRep) error {
	coord, err := fleet.NewCoordinator(cfgs, 0, fleet.CoordinatorConfig{Store: store})
	if err != nil {
		return err
	}
	var h http.Handler = coord.Handler()
	if rep.rpc != nil {
		h = rep.rpc.wrap(h)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	workers := make([]*fleet.Worker, threadCap())
	for i := range workers {
		workers[i] = &fleet.Worker{
			Client: &fleet.Client{Base: srv.URL, HTTP: srv.Client(), Seed: uint64(i + 1)},
			Runner: &grid.Runner{},
			Name:   fmt.Sprintf("bench-%d", i),
		}
	}
	rep.setup = processCPU() - setupCPU0
	rep.goFrom = markGo()
	c0, w0 := processCPU(), time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = w.Run(ctx)
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	complete := true
	select {
	case <-coord.Done():
	case <-finished:
		// Workers only exit on their own once the sweep is done, so the
		// coordinator normally got there first.
		select {
		case <-coord.Done():
		default:
			complete = false
		}
	}
	rep.wall, rep.cpu = time.Since(w0), processCPU()-c0
	rep.goTo = markGo()
	<-finished
	for _, e := range errs {
		if e != nil {
			return fmt.Errorf("fleet worker: %w", e)
		}
	}
	if !complete {
		return fmt.Errorf("fleet workers exited with the sweep incomplete")
	}
	rep.duplicates = coord.Status().Duplicates
	return nil
}

// rpcTimer is timing middleware around the coordinator's handler: busy
// time and count per RPC path, and how many lease polls were told to wait.
type rpcTimer struct {
	mu    sync.Mutex
	busy  map[string]time.Duration
	calls map[string]int
	waits int
}

func newRPCTimer() *rpcTimer {
	return &rpcTimer{busy: map[string]time.Duration{}, calls: map[string]int{}}
}

// waitSniffer notes whether a response carried the lease "wait" status.
type waitSniffer struct {
	http.ResponseWriter
	wait bool
}

var waitStatus = []byte(`"status":"` + fleet.StatusWait + `"`)

func (s *waitSniffer) Write(b []byte) (int, error) {
	if bytes.Contains(b, waitStatus) {
		s.wait = true
	}
	return s.ResponseWriter.Write(b)
}

func (m *rpcTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sw := &waitSniffer{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(sw, req)
		d := time.Since(t0)
		m.mu.Lock()
		defer m.mu.Unlock()
		m.busy[req.URL.Path] += d
		m.calls[req.URL.Path]++
		if sw.wait {
			m.waits++
		}
	})
}

func runSweepWorkload(o options, r *report) error {
	var setup, wall, cpuS, cpuPerOp, heapB, elapsedMs, opsPerSec sample
	var plainCPU, tracedCPU sample
	var gd goDelta
	var plainOps int64
	traced := &sweepLedger{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.seconds; i++ {
		dir := filepath.Join(o.dir, fmt.Sprintf("%s-%d-%d", o.workload, os.Getpid(), i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		// A traced run alternates plain and traced repetitions, so the
		// tracing overhead is measured under the same host conditions.
		tracedRep := o.trace && i%2 == 1
		// Start every repetition from a collected heap, so the previous
		// sweep's garbage is not collected on this one's set-up clock.
		runtime.GC()
		rep, err := runSweepRep(o, dir, tracedRep, r)
		if err == nil && tracedRep {
			err = traced.add(rep)
		}
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		if err != nil {
			return err
		}
		var ops int64
		for _, rec := range rep.records {
			ops += rec.Trial.Ops
			elapsedMs = append(elapsedMs, float64(rec.ElapsedNanos)/1e6)
			opsPerSec = append(opsPerSec, rec.Trial.OpsPerSec)
		}
		perOp := float64(rep.cpu) / float64(max(ops, 1))
		if tracedRep {
			tracedCPU = append(tracedCPU, perOp)
		} else {
			plainOps += ops
			plainCPU = append(plainCPU, perOp)
			gd.add(rep.goFrom, rep.goTo)
		}
		setup = append(setup, rep.setup.Seconds())
		wall = append(wall, rep.wall.Seconds())
		cpuS = append(cpuS, rep.cpu.Seconds())
		cpuPerOp = append(cpuPerOp, perOp)
		heapB = append(heapB, float64(rep.goTo.allocBytes-rep.goFrom.allocBytes)/float64(max(ops, 1)))
	}
	r.wallTiming("wall.trial_ms.p50", elapsedMs)
	r.wallTiming("wall.simops_per_s", opsPerSec)
	r.wallTiming("wall.sweep_s", wall)
	if o.trace {
		traced.report(r)
		r.set("trace.overhead_pct", 100*ratio(tracedCPU.median()-plainCPU.median(), plainCPU.median()), len(tracedCPU))
		reportGo(r, &gd, plainOps)
		return nil
	}
	r.set("cpu_ns_per_op", cpuPerOp.median(), len(cpuPerOp))
	r.set("setup_s", setup.median(), len(setup))
	r.set("sweep_cpu_s", cpuS.median(), len(cpuS))
	r.set("host_alloc_b_per_op", heapB.median(), len(heapB))
	return nil
}

// sweepLedger accumulates the traced repetitions of sweep or fleet. Grid
// trials run bench.RunTrial inside the runner, out of the decorators' reach,
// so the ds and smr/simalloc timings stay 0 here; the smr/simalloc counters
// come from the stored records (whole trials, prefill included, per window
// op).
type sweepLedger struct {
	window, overhead          sample
	busyFrac, rerunMs         sample
	openMs, bytesPerRec       sample
	counters                  map[string]*counterLedger
	leaseUs, completeUs       sample
	rpcsPerTrial, waits, dups sample
	fleetBusy                 sample
}

// counterLedger sums the stored modeled counters of one trial subset.
type counterLedger struct {
	ops, epochs, frees, flushes, remote, pages int64
	peakLimbo                                  sample
}

func (l *sweepLedger) add(rep sweepRep) error {
	if l.counters == nil {
		l.counters = map[string]*counterLedger{}
	}
	var elapsed time.Duration
	for _, rec := range rep.records {
		tr := rec.Trial
		elapsed += time.Duration(rec.ElapsedNanos)
		l.window = append(l.window, float64(tr.Wall)/1e6)
		l.overhead = append(l.overhead, float64(rec.ElapsedNanos-int64(tr.Wall))/1e6)
		for _, k := range []string{"", "." + rec.Config.Reclaimer} {
			c := l.counters[k]
			if c == nil {
				c = &counterLedger{}
				l.counters[k] = c
			}
			c.ops += tr.Ops
			c.epochs += tr.SMR.Epochs
			c.frees += tr.Alloc.Frees
			c.flushes += tr.Alloc.Flushes
			c.remote += tr.Alloc.RemoteFrees
			c.pages += tr.Alloc.FreshPages
			c.peakLimbo = append(c.peakLimbo, float64(tr.PeakLimbo))
		}
	}
	l.busyFrac = append(l.busyFrac, ratio(float64(elapsed), float64(threadCap())*float64(rep.wall)))
	l.rerunMs = append(l.rerunMs, float64(rep.cachedRerun)/1e6)

	// Re-open and index the finished store, as a resumed sweep would.
	t0 := time.Now()
	st, err := results.Open(rep.storePath)
	if err != nil {
		return err
	}
	n := st.Len()
	open := time.Since(t0)
	if err := st.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(rep.storePath)
	if err != nil {
		return err
	}
	l.openMs = append(l.openMs, float64(open)/1e6)
	l.bytesPerRec = append(l.bytesPerRec, ratio(float64(fi.Size()), float64(n)))

	if m := rep.rpc; m != nil {
		var calls int
		var busy time.Duration
		for p, c := range m.calls {
			calls += c
			busy += m.busy[p]
		}
		l.leaseUs = append(l.leaseUs, ratio(float64(m.busy["/v1/lease"])/1e3, float64(m.calls["/v1/lease"])))
		l.completeUs = append(l.completeUs, ratio(float64(m.busy["/v1/complete"])/1e3, float64(m.calls["/v1/complete"])))
		l.rpcsPerTrial = append(l.rpcsPerTrial, ratio(float64(calls), float64(len(rep.records))))
		l.waits = append(l.waits, float64(m.waits))
		l.dups = append(l.dups, float64(rep.duplicates))
		l.fleetBusy = append(l.fleetBusy, ratio(float64(busy), float64(rep.wall)))
	}
	return nil
}

func (l *sweepLedger) report(r *report) {
	r.set("bench.window_ms", l.window.median(), len(l.window))
	r.set("bench.overhead_ms", l.overhead.median(), len(l.overhead))
	r.set("grid.busy_frac", l.busyFrac.median(), len(l.busyFrac))
	r.set("grid.cached_rerun_ms", l.rerunMs.median(), len(l.rerunMs))
	r.set("results.open_ms", l.openMs.median(), len(l.openMs))
	r.set("results.bytes_per_record", l.bytesPerRec.median(), len(l.bytesPerRec))
	for _, sfx := range []string{"", ".debra", ".debra_af"} {
		c := l.counters[sfx]
		if c == nil {
			continue
		}
		r.set("smr.epochs_per_kop"+sfx, ratio(1000*float64(c.epochs), float64(c.ops)), 0)
		r.set("smr.peak_limbo"+sfx, c.peakLimbo.median(), len(c.peakLimbo))
		r.set("simalloc.flushes_per_kfree"+sfx, ratio(1000*float64(c.flushes), float64(c.frees)), 0)
		r.set("simalloc.remote_free_frac"+sfx, ratio(float64(c.remote), float64(c.frees)), 0)
		r.set("simalloc.fresh_pages_per_kop"+sfx, ratio(1000*float64(c.pages), float64(c.ops)), 0)
	}
	if len(l.leaseUs) > 0 {
		r.set("fleet.lease_us", l.leaseUs.median(), len(l.leaseUs))
		r.set("fleet.complete_us", l.completeUs.median(), len(l.completeUs))
		r.set("fleet.rpcs_per_trial", l.rpcsPerTrial.median(), len(l.rpcsPerTrial))
		r.set("fleet.wait_leases", l.waits.median(), len(l.waits))
		r.set("fleet.duplicates", l.dups.median(), len(l.dups))
		r.set("fleet.busy_frac", l.fleetBusy.median(), len(l.fleetBusy))
	}
}
