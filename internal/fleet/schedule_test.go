package fleet

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/grid"
	"repro/internal/results"
)

// costedCfgs builds a heterogeneous sweep whose static costs are strictly
// ordered by threads × ops, deliberately expanded cheapest-first (the
// adversarial order for FIFO granting).
func costedCfgs() []bench.WorkloadConfig {
	var cfgs []bench.WorkloadConfig
	for i, shape := range []struct{ threads, ops int }{
		{1, 500}, {2, 1000}, {4, 2000}, {8, 4000},
	} {
		c := bench.DefaultWorkload(shape.threads)
		c.FixedOps = shape.ops
		c.Duration = 0
		c.KeyRange = 1 << 10
		c.Seed = uint64(100 + i)
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// TestLeaseGrantsDescendingCost pins the coordinator's LPT face: an
// unlimited-capacity worker leasing repeatedly receives trials in strictly
// non-increasing estimated cost, regardless of expansion order.
func TestLeaseGrantsDescendingCost(t *testing.T) {
	coord, err := NewCoordinator(costedCfgs(), 1, CoordinatorConfig{Store: results.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i := 0; i < 4; i++ {
		l, err := coord.Lease(LeaseRequest{Worker: "big", Capacity: -1})
		if err != nil {
			t.Fatal(err)
		}
		if l.Status != StatusLease {
			t.Fatalf("lease %d: status %q, want lease", i, l.Status)
		}
		est := grid.StaticCost(l.Config)
		if prev >= 0 && est > prev {
			t.Fatalf("grant %d cost %.0f exceeds previous grant %.0f — not descending", i, est, prev)
		}
		prev = est
	}
	if l, _ := coord.Lease(LeaseRequest{Worker: "big"}); l.Status != StatusWait {
		t.Fatalf("fifth lease status %q, want wait", l.Status)
	}
}

// TestLeaseRespectsCapacity pins capacity-aware placement: a worker
// advertising capacity 2 is granted the costliest trial whose Threads fit —
// never the 4- or 8-thread ones while 1- and 2-thread trials are pending —
// and when nothing fits, the cheapest pending trial is granted anyway
// (capacity is advisory: a slow trial beats a stalled sweep).
func TestLeaseRespectsCapacity(t *testing.T) {
	coord, err := NewCoordinator(costedCfgs(), 1, CoordinatorConfig{Store: results.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := coord.Lease(LeaseRequest{Worker: "small", Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if l1.Config.Threads != 2 {
		t.Fatalf("capacity-2 worker granted %d-thread trial, want the 2-thread one", l1.Config.Threads)
	}
	l2, _ := coord.Lease(LeaseRequest{Worker: "small", Capacity: 2})
	if l2.Config.Threads != 1 {
		t.Fatalf("second capacity-2 grant is %d threads, want 1", l2.Config.Threads)
	}
	// Only 4- and 8-thread trials remain: nothing fits capacity 2, so the
	// fallback grants the cheapest pending (the 4-thread trial).
	l3, _ := coord.Lease(LeaseRequest{Worker: "small", Capacity: 2})
	if l3.Status != StatusLease || l3.Config.Threads != 4 {
		t.Fatalf("fallback grant = %q/%d threads, want lease of the 4-thread trial",
			l3.Status, l3.Config.Threads)
	}
}

// TestStatusETAAndWorkerRates pins the status surface: once completions
// flow, the coordinator reports a cost-model ETA for the remainder and
// per-worker completion rates under the injected clock.
func TestStatusETAAndWorkerRates(t *testing.T) {
	now := time.Unix(5000, 0)
	clock := func() time.Time { return now }
	coord, err := NewCoordinator(costedCfgs(), 1,
		CoordinatorConfig{Store: results.NewMemStore(), Clock: clock, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if st := coord.Status(); st.ETASeconds != 0 {
		t.Fatalf("ETA before any completion = %v, want 0 (unknown)", st.ETASeconds)
	}
	// Two workers each complete one trial, 2 seconds apart, each trial
	// having measured 2s of wall time.
	for i, name := range []string{"wa", "wb"} {
		l, err := coord.Lease(LeaseRequest{Worker: name, Capacity: -1})
		if err != nil || l.Status != StatusLease {
			t.Fatalf("lease %d: %v %v", i, l.Status, err)
		}
		now = now.Add(2 * time.Second)
		tr := fakeTrial(l.Config)
		tr.ElapsedNanos = int64(2 * time.Second)
		rec := results.NewRecord(l.Config, tr)
		if _, err := coord.Complete(CompleteRequest{
			LeaseID: l.LeaseID, Worker: name, Key: l.Key, Record: rec,
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := coord.Status()
	if st.Done != 2 || st.Complete {
		t.Fatalf("status = %+v, want 2 done incomplete", st)
	}
	if st.ETASeconds <= 0 {
		t.Fatalf("ETA after completions = %v, want > 0", st.ETASeconds)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("status names %d workers, want 2", len(st.Workers))
	}
	for _, w := range st.Workers {
		if w.Done != 1 {
			t.Fatalf("worker %s done=%d, want 1", w.Name, w.Done)
		}
		// wa's span: leased at t, completed at t+2s → 0.5/s. wb likewise.
		if w.RatePerSec <= 0 {
			t.Fatalf("worker %s rate=%v, want > 0", w.Name, w.RatePerSec)
		}
	}
	if st.Workers[0].Name >= st.Workers[1].Name {
		t.Fatalf("workers not sorted by name: %v", st.Workers)
	}
}
