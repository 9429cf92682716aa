package bench

import (
	"runtime"
	"testing"
)

// TestAutoYieldPreservesObjectFlow checks that the batched yield policy
// keeps simulated threads interleaved, so objects retired by one thread flow
// back through the allocator inside the trial. On a single P, four
// goroutines only interleave where the workers yield; if they stop yielding,
// each runs its whole op budget alone, the epoch cannot advance past the
// threads that never ran, and retired nodes pile up in limbo. The observable
// is frees per op: about 0.55 with the batched policy (0.56-0.57 with a
// yield after every op), about 0.07 with no yields at all, so the 0.35 floor
// sits far from both.
//
// A fixed op budget on one P makes the check independent of host speed and
// load. The remote-free share is deliberately not checked: it does not
// separate the policies (never yielding reads about 0.21, above the batched
// policy's 0.03-0.06, because each thread then frees what a whole burst of
// another thread retired).
func TestAutoYieldPreservesObjectFlow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := DefaultWorkload(4)
	cfg.KeyRange = 1 << 12
	cfg.FixedOps = 8000
	tr, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ops == 0 {
		t.Fatal("empty trial")
	}
	if flow := float64(tr.Alloc.Frees) / float64(tr.Ops); flow < 0.35 {
		t.Fatalf("yield policy starves object flow: %.3f frees/op, want >= 0.35 (%d frees, %d ops)",
			flow, tr.Alloc.Frees, tr.Ops)
	}
}
