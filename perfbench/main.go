// Command perfbench is the repository's benchmark: it runs one workload for
// a fixed time, checks every trial's output, and prints each metric by name
// with its unit. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. See README.md for the
// workloads, the metrics and the layer each metric belongs to.
//
//	bash perfbench/run.sh --workload update --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// options are the benchmark's command-line inputs.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dir      string // scratch space for stores, inside the checkout
}

// e2eMetrics are the end-to-end metrics every untraced run prints. They are
// all CPU time or counts: on a host with heavy steal, wall-clock medians
// swing by a third between identical runs (README.md), so wall timings are
// reported beside them but not gated.
var e2eMetrics = []struct{ name, unit string }{
	{"cpu_ns_per_op", "ns"},
	{"setup_s", "s"},
	{"sweep_cpu_s", "s"},
	{"host_alloc_b_per_op", "B"},
}

// layerMetrics are the per-layer metrics every traced run prints. A layer a
// workload does not exercise reports 0 (fleet.* outside fleet, the
// decorator timings inside grid trials, the .debra variants under hp).
var layerMetrics = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"bench.setup_ms", "ms"}, {"bench.window_ms", "ms"}, {"bench.teardown_ms", "ms"},
		{"bench.overhead_ms", "ms"}, {"bench.self_frac", "frac"},
		{"ds.insert_ns", "ns"}, {"ds.delete_ns", "ns"}, {"ds.contains_ns", "ns"},
		{"ds.self_frac", "frac"}, {"ds.insert_hit", "frac"}, {"ds.delete_hit", "frac"},
	}
	for _, sfx := range []string{"", ".debra", ".debra_af"} {
		for _, m := range []struct{ name, unit string }{
			{"smr.beginop_ns", "ns"}, {"smr.endop_ns", "ns"}, {"smr.retire_ns", "ns"},
			{"smr.self_frac", "frac"}, {"smr.epochs_per_kop", "1/kop"}, {"smr.peak_limbo", "count"},
			{"smr.stall_frac", "frac"},
			{"simalloc.alloc_ns", "ns"}, {"simalloc.free_ns", "ns"}, {"simalloc.self_frac", "frac"},
			{"simalloc.modeled_frac", "frac"}, {"simalloc.lock_wait_frac", "frac"},
			{"simalloc.flushes_per_kfree", "1/kfree"}, {"simalloc.remote_free_frac", "frac"},
			{"simalloc.fresh_pages_per_kop", "1/kop"},
		} {
			out = append(out, struct{ name, unit string }{m.name + sfx, m.unit})
		}
	}
	return append(out, []struct{ name, unit string }{
		{"go.gc_cpu_frac", "frac"}, {"go.allocs_per_op", "count"}, {"go.gc_cycles", "count"},
		{"go.sched_wait_p99_us", "us"},
		{"grid.busy_frac", "frac"}, {"grid.cached_rerun_ms", "ms"},
		{"results.open_ms", "ms"}, {"results.bytes_per_record", "B"},
		{"fleet.lease_us", "us"}, {"fleet.complete_us", "us"}, {"fleet.rpcs_per_trial", "count"},
		{"fleet.wait_leases", "count"}, {"fleet.duplicates", "count"}, {"fleet.busy_frac", "frac"},
		{"wall.trial_ms.p50", "ms"}, {"wall.simops_per_s", "1/s"}, {"wall.sweep_s", "s"},
		{"host.steal_frac", "frac"}, {"host.cpu_per_wall", "frac"},
		{"trace.overhead_pct", "%"}, {"trace.residual_frac", "frac"},
	}...)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and correctness outcome.
type report struct {
	metrics   map[string]metricValue
	samples   map[string]int // sample count behind each metric, for the text report
	wall      []string       // wall-clock medians and tails for the text report
	attempted int
	failed    int
	failures  []string
	noise     hostNoise
}

func newReport() *report {
	return &report{metrics: map[string]metricValue{}, samples: map[string]int{}}
}

// set records a metric; n is its sample count (0 when it is a single ratio).
func (r *report) set(name string, v float64, n int) {
	r.metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	r.samples[name] = n
}

// wallTiming reports a wall-clock timing: its median as the per-layer
// metric name (traced runs), and in the text report the median plus the
// highest percentile with at least ten observations beyond it.
func (r *report) wallTiming(name string, s sample) {
	if len(s) == 0 {
		return
	}
	unit := unitOf(name)
	r.set(name, s.median(), len(s))
	q1, q2, q3 := s.quartiles()
	line := fmt.Sprintf("%-36s %14.6g %s  (median, n=%d, quartiles %.6g–%.6g", name, q2, unit, len(s), q1, q3)
	if p := tailPercentile(len(s)); p > 50 {
		line += fmt.Sprintf("; p%g %.6g %s", p, s.percentile(p), unit)
	}
	r.wall = append(r.wall, line+")")
}

// trial records one attempted trial and whether its checks held.
func (r *report) trial(problems []string) {
	r.attempted++
	if len(problems) > 0 {
		r.failed++
		r.failures = append(r.failures, problems...)
	}
}

// check records a run-level correctness check (sweep shape, cache re-run,
// fleet/sweep key agreement); a failing one counts as a failed attempt.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func unitOf(name string) string {
	for _, m := range e2eMetrics {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// emit prints the text report, then the JSON result line. Traced runs carry
// every layer metric (0 for layers the workload does not reach); untraced
// runs carry every end-to-end metric.
func (r *report) emit(o options) error {
	want := e2eMetrics
	if o.trace {
		want = layerMetrics
	}
	out := map[string]metricValue{}
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok {
			if !o.trace {
				return fmt.Errorf("perfbench: workload %s did not measure %s", o.workload, m.name)
			}
			v = metricValue{Unit: m.unit}
		}
		out[m.name] = v
	}
	fmt.Printf("workload %s seed %d seconds %v trace %v\n", o.workload, o.seed, o.seconds.Seconds(), o.trace)
	n := r.noise
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s steal_frac=%.4f cpu_per_wall=%.3f\n",
		n.Nproc, n.GOMAXPROCS, n.GoVersion, n.StealFrac, n.CPUPerWall)
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line := fmt.Sprintf("%-36s %14.6g %s", name, out[name].Value, out[name].Unit)
		if s := r.samples[name]; s > 0 {
			line += fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Println(line)
	}
	fmt.Println("wall-clock timings (not gated; see README.md):")
	for _, line := range r.wall {
		fmt.Println(line)
	}
	failFrac := 0.0
	if r.attempted > 0 {
		failFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-36s %14.6g frac  (%d failed of %d attempted)\n", "fail_frac", failFrac, r.failed, r.attempted)
	for i, f := range r.failures {
		if i == 20 {
			fmt.Printf("... %d more failures\n", len(r.failures)-i)
			break
		}
		fmt.Println("FAIL", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// threadCap is the per-trial simulated thread count and the parallelism of
// grid and fleet: the host's CPU count, at most two.
func threadCap() int { return min(2, runtime.NumCPU()) }

var workloads = map[string]func(options, *report) error{
	"update":      runTrialWorkload,
	"read-mostly": runTrialWorkload,
	"sweep":       runSweepWorkload,
	"fleet":       runSweepWorkload,
}

func main() {
	var o options
	var trace int
	var seconds int
	flag.StringVar(&o.workload, "workload", "", "update, read-mostly, sweep or fleet")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "scratch directory for result stores")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload update|read-mostly|sweep|fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	r := newReport()
	start := markHost()
	if err := run(o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.noise = noiseSince(start)
	if o.trace {
		r.set("host.steal_frac", r.noise.StealFrac, 0)
		r.set("host.cpu_per_wall", r.noise.CPUPerWall, 0)
	}
	if err := r.emit(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
