package bench

import (
	"testing"
	"time"

	"repro/internal/clock"
)

// TestArrivalPreservesModeledStats pins the open-system contract: arrivals
// change *when* ops run, never *which* ops run. A single-threaded FixedOps
// trial under a fast Poisson process must produce modeled statistics
// bit-identical to the closed-loop trial — the scenario streams are
// consumed in the same order whatever the admitted batch sizes are.
func TestArrivalPreservesModeledStats(t *testing.T) {
	for _, rec := range []string{"debra", "hp"} {
		t.Run(rec, func(t *testing.T) {
			closed, err := RunTrial(parityConfig(rec, "abtree"))
			if err != nil {
				t.Fatal(err)
			}
			cfg := parityConfig(rec, "abtree")
			cfg.Arrival = "poisson:10000000" // mean gap 100ns: faster than service, paced but never idle for long
			open, err := RunTrial(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := modeledOf(open), modeledOf(closed); got != want {
				t.Fatalf("arrival pacing changed modeled stats:\n open   %+v\n closed %+v", got, want)
			}
			if open.Arrival != "poisson:1e+07" {
				t.Fatalf("canonical arrival label %q", open.Arrival)
			}
			if open.Latency == nil || open.Latency.Count() != open.Ops {
				t.Fatalf("latency histogram: got %v observations, want one per op (%d)", open.Latency.Count(), open.Ops)
			}
		})
	}
}

// TestArrivalRecordsLatency checks the wall-clock path end to end: a
// Poisson trial reports ordered, non-zero latency quantiles and a
// throughput near the configured arrival rate (open systems are
// rate-limited, not machine-limited). The offered rate sits well below what
// a race-detector build sustains while the rest of the suite runs in
// parallel, so the trial stays rate-limited there too.
func TestArrivalRecordsLatency(t *testing.T) {
	cfg := DefaultWorkload(2)
	cfg.KeyRange = 1 << 10
	cfg.Duration = 120 * time.Millisecond
	cfg.Arrival = "poisson:25000"
	res, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency == nil || res.Latency.Count() == 0 {
		t.Fatal("no latency observations")
	}
	if res.LatP50Ns <= 0 || res.LatP99Ns < res.LatP50Ns || res.LatP999Ns < res.LatP99Ns || res.LatMaxNs < res.LatP999Ns {
		t.Fatalf("quantiles out of order: p50=%d p99=%d p999=%d max=%d",
			res.LatP50Ns, res.LatP99Ns, res.LatP999Ns, res.LatMaxNs)
	}
	// 2 workers × 25k/s: delivered throughput tracks the offered rate
	// (generous band — CI machines stutter).
	if res.OpsPerSec < 25000 || res.OpsPerSec > 75000 {
		t.Fatalf("open-system throughput %.0f/s, want ≈50k/s (rate-limited)", res.OpsPerSec)
	}
}

// TestArrivalHotPathZeroAllocs is the recording-path allocation pin: with
// arrivals already due, an admit + complete cycle — everything the worker
// does beyond the closed-loop batch — allocates nothing.
func TestArrivalHotPathZeroAllocs(t *testing.T) {
	cfg := DefaultWorkload(1)
	cfg.Arrival = "poisson:1000000"
	ae, err := newArrivalEngine(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st Stack
	clock.EnsureCoarse()
	// Anchor the origin far enough back that arrivals are always due.
	ae.origin.Store(clock.Coarse() - int64(time.Second))
	if avg := testing.AllocsPerRun(1000, func() {
		n := ae.admit(&st, 0, opBatchSize)
		ae.complete(0, n)
	}); avg != 0 {
		t.Fatalf("admit+complete allocates %.1f per batch, want 0", avg)
	}
	if ae.state[0].hist.Count() == 0 {
		t.Fatal("no observations recorded")
	}
}

// TestArrivalClosedLoopEngineNil pins that "" and "none" both mean closed
// loop (nil engine) and that a bad spec fails stack construction.
func TestArrivalClosedLoopEngineNil(t *testing.T) {
	for _, s := range []string{"", "none"} {
		cfg := DefaultWorkload(1)
		cfg.Arrival = s
		ae, err := newArrivalEngine(&cfg)
		if err != nil || ae != nil {
			t.Fatalf("Arrival=%q: engine %v, err %v; want nil, nil", s, ae, err)
		}
	}
	cfg := DefaultWorkload(1)
	cfg.Arrival = "poisson:-1"
	if _, err := RunTrial(cfg); err == nil {
		t.Fatal("bad arrival spec accepted")
	}
}

// TestArrivalResyncDropsBacklog pins the reroute semantics: after a resync,
// the next admitted arrival postdates the resync instant.
func TestArrivalResyncDropsBacklog(t *testing.T) {
	cfg := DefaultWorkload(1)
	cfg.Arrival = "poisson:1000000"
	ae, err := newArrivalEngine(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	clock.EnsureCoarse()
	ae.origin.Store(clock.Coarse() - int64(50*time.Millisecond))
	before := clock.Coarse() - ae.origin.Load()
	ae.resync(0)
	if ae.state[0].next <= before {
		t.Fatalf("resync left a backlogged arrival: next=%dns, resync at %dns", ae.state[0].next, before)
	}
	// And the nil engine is safe everywhere.
	var nilAE *arrivalEngine
	nilAE.open()
	nilAE.resync(0)
	nilAE.complete(0, 0)
	if nilAE.mergedHist() != nil {
		t.Fatal("nil engine produced a histogram")
	}
	if n := nilAE.admit(nil, 0, 64); n != 64 {
		t.Fatalf("nil admit clamped the batch to %d", n)
	}
}
