package bench

import (
	"strings"
	"testing"
	"time"
)

// tinyWorkload returns a fast configuration for harness tests.
func tinyWorkload(threads int) WorkloadConfig {
	cfg := DefaultWorkload(threads)
	cfg.KeyRange = 1 << 10
	cfg.Duration = 25 * time.Millisecond
	cfg.BatchSize = 128
	return cfg
}

func tinyOptions() Options {
	return Options{
		Threads:   []int{4},
		AtThreads: 4,
		Duration:  20 * time.Millisecond,
		Trials:    1,
		KeyRange:  1 << 10,
		BatchSize: 128,
	}
}

func TestRunTrialBasics(t *testing.T) {
	for _, rc := range []string{"none", "debra", "debra_af", "token_af", "hp"} {
		rc := rc
		t.Run(rc, func(t *testing.T) {
			cfg := tinyWorkload(4)
			cfg.Reclaimer = rc
			tr, err := RunTrial(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Ops <= 0 || tr.OpsPerSec <= 0 {
				t.Fatalf("no throughput: %+v", tr)
			}
			if tr.PeakBytes <= 0 {
				t.Fatal("no peak memory recorded")
			}
			if tr.Alloc.Allocs == 0 {
				t.Fatal("no allocations recorded")
			}
			if rc != "none" && tr.SMR.Retired == 0 {
				t.Fatal("no retirements recorded")
			}
		})
	}
}

func TestRunTrialAllStructuresAndAllocators(t *testing.T) {
	for _, dsName := range []string{"abtree", "occtree", "dgtree"} {
		for _, alloc := range []string{"jemalloc", "tcmalloc", "mimalloc"} {
			cfg := tinyWorkload(2)
			cfg.DataStructure = dsName
			cfg.Allocator = alloc
			cfg.Reclaimer = "qsbr"
			tr, err := RunTrial(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", dsName, alloc, err)
			}
			if tr.Ops == 0 {
				t.Fatalf("%s/%s: no ops", dsName, alloc)
			}
		}
	}
}

func TestRunTrialValidation(t *testing.T) {
	if _, err := RunTrial(WorkloadConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := tinyWorkload(2)
	cfg.Reclaimer = "bogus"
	if _, err := RunTrial(cfg); err == nil {
		t.Fatal("unknown reclaimer accepted")
	}
	cfg = tinyWorkload(2)
	cfg.Allocator = "bogus"
	if _, err := RunTrial(cfg); err == nil {
		t.Fatal("unknown allocator accepted")
	}
	cfg = tinyWorkload(2)
	cfg.DataStructure = "bogus"
	if _, err := RunTrial(cfg); err == nil {
		t.Fatal("unknown data structure accepted")
	}
}

func TestRunTrialsAggregation(t *testing.T) {
	cfg := tinyWorkload(2)
	s, err := RunTrials(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Trials) != 2 {
		t.Fatalf("trials = %d", len(s.Trials))
	}
	if s.MinOps > s.MeanOps || s.MeanOps > s.MaxOps {
		t.Fatalf("mean %v outside [min %v, max %v]", s.MeanOps, s.MinOps, s.MaxOps)
	}
}

func TestRecorderPlumbing(t *testing.T) {
	cfg := tinyWorkload(2)
	cfg.Record = true
	cfg.RecorderCap = 1000
	tr, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Recorder == nil {
		t.Fatal("recorder not returned")
	}
}

func TestWorkloadMaintainsSteadyState(t *testing.T) {
	// The 50/50 workload must perform genuine successful updates: the
	// allocator should see allocation traffic well beyond the prefill. A
	// FixedOps trial makes the op count independent of host speed, which a
	// wall-clock window under the race detector is not.
	cfg := tinyWorkload(4)
	cfg.Reclaimer = "none"
	cfg.FixedOps = 2000
	tr, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefillAllocs := cfg.KeyRange // upper bound on prefill node count
	if tr.Alloc.Allocs < 2*prefillAllocs {
		t.Fatalf("allocs %d suggest the measured window performed no successful updates", tr.Alloc.Allocs)
	}
}

func TestOptionsFill(t *testing.T) {
	var o Options
	o.fill()
	d := DefaultOptions()
	if len(o.Threads) != len(d.Threads) || o.AtThreads != d.AtThreads ||
		o.Duration != d.Duration || o.KeyRange != d.KeyRange {
		t.Fatalf("fill() did not apply defaults: %+v", o)
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "table1", "fig3", "table2", "fig4", "table3",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table4",
		"exp1", "exp2", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "appg",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(ExperimentIDs()) < len(want) {
		t.Fatalf("registry has %d experiments, want >= %d", len(ExperimentIDs()), len(want))
	}
}

func TestExperimentTable4Runs(t *testing.T) {
	e, ok := Get("table4")
	if !ok {
		t.Fatal("table4 missing")
	}
	out, err := e.Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Naive", "Pass-first", "Periodic", "Amortized"} {
		if !strings.Contains(out, want) {
			t.Errorf("table4 output missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentFig9TimelineRuns(t *testing.T) {
	e, _ := Get("fig9")
	out, err := e.Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "token_af") {
		t.Errorf("fig9 output unexpected:\n%s", out)
	}
}

func TestExperimentTable2Runs(t *testing.T) {
	e, _ := Get("table2")
	out, err := e.Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "JE batch") || !strings.Contains(out, "JE amort.") {
		t.Errorf("table2 output missing rows:\n%s", out)
	}
}

func TestTableFormatter(t *testing.T) {
	tb := newTable("a", "b")
	tb.add("1", "2")
	tb.addf("%d\t%s", 3, "x")
	out := tb.String()
	for _, want := range []string{"a", "b", "1", "2", "3", "x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := map[float64]string{
		5:      "5",
		1500:   "1.5K",
		2.5e6:  "2.5M",
		3.2e9:  "3.20B",
		43.4e6: "43.4M",
	}
	for v, want := range cases {
		if got := fmtOps(v); got != want {
			t.Errorf("fmtOps(%v) = %q, want %q", v, got, want)
		}
	}
	if ratio(2, 1) != "2.00x" || ratio(1, 0) != "inf" {
		t.Error("ratio formatting wrong")
	}
	if fmtCount(1500) != "1.5K" {
		t.Error("fmtCount wrong")
	}
}

func TestRNGIndependenceOfKeyAndCoin(t *testing.T) {
	// Regression test for the frozen-set bug: with key and coin drawn from
	// one xorshift stream the coin is a deterministic function of the key.
	// Verify that for our two-stream scheme, keys seen with coin=0 and
	// coin=1 overlap substantially.
	keyRNG := newRNG(123)
	coinRNG := newRNG(456)
	seen := map[int64][2]bool{}
	for i := 0; i < 20000; i++ {
		k := keyRNG.intn(64)
		c := 0
		if coinRNG.next()&(1<<30) != 0 {
			c = 1
		}
		v := seen[k]
		v[c] = true
		seen[k] = v
	}
	both := 0
	for _, v := range seen {
		if v[0] && v[1] {
			both++
		}
	}
	if both < 60 {
		t.Fatalf("only %d/64 keys drawn with both coins; key/coin correlated", both)
	}
}
