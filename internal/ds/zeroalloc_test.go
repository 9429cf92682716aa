package ds

import (
	"testing"

	"repro/internal/simalloc"
	"repro/internal/smr"
	"repro/internal/timeline"
)

// Steady-state zero-allocation pins. The guard dispatch path exists so the
// hottest loop in the harness — traverse, publish protection per visited
// node, finish the op — does no avoidable host work; a Go heap allocation on
// that path (interface boxing, an escaping path array, a closure capture)
// would cost far more than the dispatch it saves. The read path is the pure
// form of that loop: a full BeginOp/Protect.../EndOp cycle with no node
// churn, so it must allocate exactly nothing for every reclaimer family on
// every tree.
//
// One reclaimer per family (the families share their hot-path structure):
//
//	epoch  → debra   (announcement array, limbo bags)
//	hazard → hp      (pointer-publishing slot window)
//	era    → he      (era-publishing slot window; wfe shares the code)
//	token  → token_af (ring token + amortized freer pump in EndOp)
func zeroAllocFamilies() []string { return []string{"debra", "hp", "he", "token_af"} }

func buildSet(t *testing.T, dsName, recName string) (Set, simalloc.Allocator) {
	t.Helper()
	acfg := simalloc.DefaultConfig(1)
	acfg.Cost = simalloc.Uniform()
	alloc := simalloc.NewJEMalloc(acfg)
	rec, err := smr.New(recName, smr.DefaultConfig(alloc, 1))
	if err != nil {
		t.Fatal(err)
	}
	set, err := New(dsName, alloc, rec)
	if err != nil {
		t.Fatal(err)
	}
	return set, alloc
}

func TestSteadyStateReadPathZeroAllocs(t *testing.T) {
	const keyRange = 1 << 10
	for _, dsName := range Names() {
		for _, recName := range zeroAllocFamilies() {
			t.Run(dsName+"/"+recName, func(t *testing.T) {
				set, _ := buildSet(t, dsName, recName)
				assertReadPathZeroAllocs(t, set, keyRange)
			})
		}
	}
}

// TestRecordedReadPathZeroAllocs is the recording-pipeline rider on the pin
// above: with a timeline recorder wired through the reclaimer and the
// allocator's free observer installed, the read path must still allocate
// exactly nothing. The staged pipeline writes into fixed rings and the
// committed buffers only grow inside Merge, which a pure read cycle never
// feeds, so recording on is indistinguishable from recording off here.
func TestRecordedReadPathZeroAllocs(t *testing.T) {
	const keyRange = 1 << 10
	for _, dsName := range Names() {
		for _, recName := range zeroAllocFamilies() {
			t.Run(dsName+"/"+recName, func(t *testing.T) {
				acfg := simalloc.DefaultConfig(1)
				acfg.Cost = simalloc.Uniform()
				alloc := simalloc.NewJEMalloc(acfg)
				tl := timeline.NewRecorder(1, 4096)
				alloc.SetFreeObserver(tl.ObserveFree)
				scfg := smr.DefaultConfig(alloc, 1)
				scfg.Recorder = tl
				rec, err := smr.New(recName, scfg)
				if err != nil {
					t.Fatal(err)
				}
				set, err := New(dsName, alloc, rec)
				if err != nil {
					t.Fatal(err)
				}
				assertReadPathZeroAllocs(t, set, keyRange)
			})
		}
	}
}

func assertReadPathZeroAllocs(t *testing.T, set Set, keyRange int64) {
	t.Helper()
	// Prefill to a realistic depth so traversals visit several
	// levels (and therefore publish several protections).
	for k := int64(0); k < keyRange; k += 2 {
		set.Insert(0, k)
	}
	// Warm up: let lazily-grown scratch (hazard scan maps, flush
	// groups) reach steady state before counting.
	key := int64(1)
	for i := 0; i < 512; i++ {
		set.Contains(0, key)
		key = (key*31 + 17) % keyRange
	}
	avg := testing.AllocsPerRun(200, func() {
		set.Contains(0, key)
		key = (key*31 + 17) % keyRange
	})
	if avg != 0 {
		t.Fatalf("steady-state read path allocates %.2f objects/op", avg)
	}
}

// TestSteadyStateUpdatePathAllocs pins the abtree update path's Go heap
// budget: a successful update that neither splits nor empties its leaf
// edits the leaf in place and allocates nothing. An Insert+Delete pair of
// one odd key into a prefilled tree is two such edits, so it costs exactly 0
// allocations; anything that escapes on the path, such as a closure, a
// boxed interface or a spilled descent path, shows up here.
func TestSteadyStateUpdatePathAllocs(t *testing.T) {
	const keyRange = 1 << 10
	for _, recName := range zeroAllocFamilies() {
		t.Run("abtree/"+recName, func(t *testing.T) {
			set, _ := buildSet(t, "abtree", recName)
			for k := int64(0); k < keyRange; k += 2 {
				set.Insert(0, k)
			}
			const key = keyRange/2 + 1
			pair := func() {
				if !set.Insert(0, key) || !set.Delete(0, key) {
					t.Fatalf("Insert+Delete of absent key %d did not both succeed", key)
				}
			}
			// Warm up past a full reclamation cycle: until the first
			// hazard scan (BatchSize retires, two per pair) frees nodes
			// back to the allocator, every Alloc carves fresh Objects.
			for i := 0; i < 4096; i++ {
				pair()
			}
			if avg := testing.AllocsPerRun(200, pair); avg != 0 {
				t.Fatalf("steady-state Insert+Delete allocates %.2f objects, want 0 (both edits are in place)", avg)
			}
		})
	}
}
