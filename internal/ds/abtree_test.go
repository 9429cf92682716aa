package ds

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/simalloc"
)

// sortedKeys returns n strictly increasing keys with gaps of at least two,
// so key+1 always falls strictly between neighbours.
func sortedKeys(rng *rand.Rand, n int) []int64 {
	keys := make([]int64, n)
	k := rng.Int63n(100)
	for i := range keys {
		keys[i] = k
		k += 2 + rng.Int63n(8)
	}
	return keys
}

// testLeaf builds an unpublished leaf holding keys, outside any tree.
func testLeaf(keys []int64) *abNode {
	n := &abNode{}
	n.vn.Store(uint64(copy(n.lk[:], keys)))
	return n
}

// TestABTreeSearchMatchesSortSearch checks the hand-written node searches
// against sort.Search on every node length the tree can hold, probing below
// the minimum, above the maximum, at each key and between keys: childIndex
// over internal key arrays, and leafRead over inline leaf keys.
func TestABTreeSearchMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= abInternalCap; n++ {
		for trial := 0; trial < 4; trial++ {
			keys := sortedKeys(rng, n)
			var leaf *abNode
			if n <= abLeafCap {
				leaf = testLeaf(keys)
			}
			probes := []int64{-1 << 40, 1 << 40}
			for _, k := range keys {
				probes = append(probes, k-1, k, k+1)
			}
			for _, key := range probes {
				wantChild := sort.Search(n, func(i int) bool { return key < keys[i] })
				if got := childIndex(keys, key); got != wantChild {
					t.Fatalf("n=%d key=%d: childIndex = %d, want %d (keys %v)", n, key, got, wantChild, keys)
				}
				if leaf == nil {
					continue
				}
				wantLB := sort.Search(n, func(i int) bool { return keys[i] >= key })
				wantHas := wantLB < n && keys[wantLB] == key
				i, found, v := leafRead(leaf, key)
				if i != wantLB || found != wantHas || v != uint64(n) {
					t.Fatalf("n=%d key=%d: leafRead = (%d, %v, %#x), want (%d, %v, %#x) (keys %v)",
						n, key, i, found, v, wantLB, wantHas, n, keys)
				}
			}
		}
	}
}

// TestInsertRemoveSortedHelpers covers the in-place leaf key shifts at
// every position of every leaf length: insertAt must keep the keys sorted,
// and removeAt at the same index must give back the original keys.
func TestInsertRemoveSortedHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < abLeafCap; n++ {
		keys := sortedKeys(rng, n)
		for i := 0; i <= n; i++ {
			key := int64(-1)
			if i > 0 {
				key = keys[i-1] + 1
			}
			leaf := testLeaf(keys)
			leaf.insertAt(i, n, key)
			got := leaf.lk[:n+1]
			if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) || got[i] != key {
				t.Fatalf("insertAt(%d, %d, %d) on %v = %v", i, n, key, keys, got)
			}
			leaf.removeAt(i, n+1)
			for j, k := range keys {
				if leaf.lk[j] != k {
					t.Fatalf("removeAt(%d) after insertAt = %v, want %v", i, leaf.lk[:n], keys)
				}
			}
		}
	}
}

// binaryLowerBound and linearLowerBound are the searches
// BenchmarkABTreeSearch weighs against each other.
func binaryLowerBound(keys []int64, key int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func linearLowerBound(keys []int64, key int64) int {
	for i, k := range keys {
		if k >= key {
			return i
		}
	}
	return len(keys)
}

// BenchmarkABTreeSearch measures where a linear scan stops beating binary
// search over the node widths the tree uses: leaves hold up to abLeafCap
// keys and internal nodes up to abInternalCap-1. The crossover sets which
// search leafRead (leaves) and childIndex (internal nodes) use. At leaf
// widths it also runs leafRead itself, the linear scan plus its seqlock
// validation.
func BenchmarkABTreeSearch(b *testing.B) {
	searches := []struct {
		name string
		fn   func([]int64, int64) int
	}{
		{"binary", binaryLowerBound},
		{"linear", linearLowerBound},
	}
	for _, n := range []int{8, 16, 32, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		keys := sortedKeys(rng, n)
		probes := make([]int64, 1024)
		for i := range probes {
			probes[i] = keys[0] - 1 + rng.Int63n(keys[n-1]-keys[0]+2)
		}
		for _, s := range searches {
			b.Run(s.name+"/"+strconv.Itoa(n), func(b *testing.B) {
				i := 0
				for b.Loop() {
					s.fn(keys, probes[i&(len(probes)-1)])
					i++
				}
			})
		}
		if n > abLeafCap {
			continue
		}
		leaf := testLeaf(keys)
		b.Run("leafRead/"+strconv.Itoa(n), func(b *testing.B) {
			i := 0
			for b.Loop() {
				leafRead(leaf, probes[i&(len(probes)-1)])
				i++
			}
		})
	}
}

// checkABTree walks an abtree from its root and fails t on any broken
// structural invariant, including a non-root internal node left with two
// children; it returns the depth of the deepest leaf. It
// must run while no operation is in flight. Keys are checked against
// half-open separator ranges [lo, hi), so the walker treats math.MaxInt64
// as out of range.
func checkABTree(t *testing.T, set Set) (depth int) {
	t.Helper()
	tr := set.(*ABTree)
	root := tr.root.Load()
	var total int64
	var walk func(n *abNode, lo, hi int64, d int)
	walk = func(n *abNode, lo, hi int64, d int) {
		if d > depth {
			depth = d
		}
		if obj := n.obj.Load(); obj.State() != simalloc.StateAllocated {
			t.Fatalf("depth %d: reachable node's Object %d is not allocated", d, obj.ID)
		}
		in := n.in
		if in == nil {
			v := n.vn.Load()
			cnt := int(v & abCountMask)
			switch {
			case v&abVersionOne != 0:
				t.Fatalf("depth %d: leaf edit still in flight (vn %#x)", d, v)
			case cnt > abLeafCap:
				t.Fatalf("depth %d: leaf holds %d keys, cap %d", d, cnt, abLeafCap)
			case cnt == 0 && n != root:
				t.Fatalf("depth %d: empty non-root leaf", d)
			}
			checkRange(t, "leaf", n.lk[:cnt], lo, hi)
			total += int64(cnt)
			return
		}
		if in.retired.Load() {
			t.Fatalf("depth %d: reachable internal node is retired", d)
		}
		if len(in.children) != len(in.keys)+1 || len(in.children) < 2 || len(in.children) > abInternalCap {
			t.Fatalf("depth %d: internal node has %d keys and %d children", d, len(in.keys), len(in.children))
		}
		if len(in.children) == 2 && n != root {
			t.Fatalf("depth %d: non-root internal node has two children (unabsorbed spine)", d)
		}
		checkRange(t, "internal", in.keys, lo, hi)
		for i := range in.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = in.keys[i-1]
			}
			if i < len(in.keys) {
				chi = in.keys[i]
			}
			walk(in.children[i].Load(), clo, chi, d+1)
		}
	}
	walk(root, math.MinInt64, math.MaxInt64, 0)
	if got := set.Size(); got != total {
		t.Fatalf("Size = %d but the leaves hold %d keys", got, total)
	}
	return depth
}

// checkRange fails t unless keys are strictly increasing inside [lo, hi).
func checkRange(t *testing.T, kind string, keys []int64, lo, hi int64) {
	t.Helper()
	for i, k := range keys {
		if k < lo || k >= hi || (i > 0 && k <= keys[i-1]) {
			t.Fatalf("%s keys %v not strictly sorted inside [%d, %d)", kind, keys, lo, hi)
		}
	}
}

// TestABTreeMonotonicKeys inserts, finds and deletes long ascending and
// descending key runs. Each run overflows the same edge of the tree over and
// over; every overflow's spine must be absorbed upward, so the leaves stay
// within three levels of the root instead of that edge deepening by a level
// every few hundred keys.
func TestABTreeMonotonicKeys(t *testing.T) {
	const n = 20000
	for _, order := range []string{"ascending", "descending"} {
		t.Run(order, func(t *testing.T) {
			key := func(i int) int64 {
				if order == "ascending" {
					return int64(i)
				}
				return int64(n - 1 - i)
			}
			set, _, _ := newTestSet(t, "abtree", "none", 1)
			for i := 0; i < n; i++ {
				if !set.Insert(0, key(i)) {
					t.Fatalf("Insert(%d) failed", key(i))
				}
			}
			if depth := checkABTree(t, set); depth > 3 {
				t.Fatalf("leaf depth %d after %d %s inserts; want <= 3", depth, n, order)
			}
			for i := 0; i < n; i++ {
				if !set.Contains(0, key(i)) {
					t.Fatalf("key %d missing", key(i))
				}
			}
			// Deleting in order empties the leaves under one internal node
			// after another; each node left with two children must be
			// absorbed into its parent on the way.
			for i := 0; i < n; i++ {
				if !set.Delete(0, key(i)) {
					t.Fatalf("Delete(%d) failed", key(i))
				}
				if i%97 == 0 {
					checkABTree(t, set)
				}
			}
			checkABTree(t, set)
			if set.Size() != 0 {
				t.Fatalf("Size = %d after deleting all", set.Size())
			}
		})
	}
}

// TestABTreePaperSteadyStateDepth builds the paper's steady state (half of
// a 32768-key range prefilled with uniform keys, then uniform 50/50 insert
// and delete) and checks that the tree keeps its leaves within three levels
// of the root.
func TestABTreePaperSteadyStateDepth(t *testing.T) {
	const keyRange = 1 << 15
	ops := 400000
	if testing.Short() {
		ops = 50000
	}
	set, _, _ := newTestSet(t, "abtree", "none", 1)
	rng := rand.New(rand.NewSource(5))
	for set.Size() < keyRange/2 {
		set.Insert(0, rng.Int63n(keyRange))
	}
	for i := 0; i < ops; i++ {
		if key := rng.Int63n(keyRange); i%2 == 0 {
			set.Insert(0, key)
		} else {
			set.Delete(0, key)
		}
	}
	if depth := checkABTree(t, set); depth > 3 {
		t.Fatalf("leaf depth %d at the paper's steady state; want <= 3", depth)
	}
}

// TestABPathSpillsPastMaxDepth covers the heap spill of a descent path. No
// tree the workloads build is that deep, so it pushes entries directly and
// then descends a hand-built chain deeper than abMaxDepth twice through one
// path, which must be refilled, not appended to.
func TestABPathSpillsPastMaxDepth(t *testing.T) {
	const depth = abMaxDepth + 5
	var p abPath
	nodes := make([]*abNode, depth)
	for d := range nodes {
		nodes[d] = &abNode{}
		p.push(d, abPathEntry{nodes[d], d})
	}
	for d, n := range nodes {
		if e := p.at(d); e.n != n || e.idx != d {
			t.Fatalf("at(%d) = {%p, %d}, want {%p, %d}", d, e.n, e.idx, n, d)
		}
	}

	// A right-leaning chain: level d splits at key d, so key depth+1 takes
	// slot 1 at every level.
	set, _, _ := newTestSet(t, "abtree", "none", 1)
	tr := set.(*ABTree)
	cur := tr.newLeaf(0, []int64{depth + 1})
	for d := depth - 1; d >= 0; d-- {
		nodes[d] = tr.newPair(0, []int64{int64(d)}, tr.newLeaf(0, []int64{int64(d) - 1}), cur)
		cur = nodes[d]
	}
	tr.root.Store(cur)
	var path abPath
	for round := 0; round < 2; round++ {
		leaf, got := tr.descend(0, depth+1, &path)
		if got != depth || leaf.in != nil || len(path.far) != depth-abMaxDepth {
			t.Fatalf("round %d: descent depth %d with %d spilled entries, want %d and %d",
				round, got, len(path.far), depth, depth-abMaxDepth)
		}
		for d, n := range nodes {
			if e := path.at(d); e.n != n || e.idx != 1 {
				t.Fatalf("round %d: path.at(%d) = {%p, %d}, want {%p, 1}", round, d, e.n, e.idx, n)
			}
		}
	}
	if !set.Contains(0, depth+1) || set.Contains(0, depth) {
		t.Fatal("Contains wrong on the deep chain")
	}
}

// TestABTreeConcurrentAbsorb races spine absorbs against each other and
// against empty-leaf removals. Goroutines insert ascending runs that
// interleave over one key range in chunks of two leaves' worth of keys, so
// they share leaf parents and overflow the same internal nodes, while each
// run splits its own leaves like a monotonic run, half full. Each goroutine
// also deletes random keys of its own. The range overflows the root twice.
// Afterwards the tree must be well formed with no unabsorbed spine and hold
// exactly the keys inserted and not deleted.
func TestABTreeConcurrentAbsorb(t *testing.T) {
	const (
		workers = 3
		perW    = 16000
		chunk   = 2 * abLeafCap
	)
	key := func(w, i int) int64 { return int64(((i/chunk)*workers+w)*chunk + i%chunk) }
	for _, recName := range []string{"debra", "hp"} {
		t.Run(recName, func(t *testing.T) {
			set, _, _ := newTestSet(t, "abtree", recName, workers)
			present := make([][]bool, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				present[w] = make([]bool, perW)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					mine := present[w]
					for i := 0; i < perW; i++ {
						if !set.Insert(w, key(w, i)) {
							t.Errorf("Insert(%d) of a fresh key failed", key(w, i))
							return
						}
						mine[i] = true
						if i%4 == 3 {
							j := rng.Intn(i + 1)
							if set.Delete(w, key(w, j)) != mine[j] {
								t.Errorf("Delete(%d) = %v, want %v", key(w, j), !mine[j], mine[j])
								return
							}
							mine[j] = false
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if depth := checkABTree(t, set); depth < 3 {
				t.Fatalf("leaf depth %d; the root must overflow twice to exercise absorbs at the root", depth)
			}
			for w := range present {
				for i, want := range present[w] {
					if set.Contains(0, key(w, i)) != want {
						t.Fatalf("Contains(%d) = %v, want %v", key(w, i), !want, want)
					}
				}
			}
		})
	}
}

// TestABTreeStableKeysNeverVanish races readers against in-place leaf
// edits. The tree is prefilled with every even key; writers churn the keys
// ≡ 1 (mod 4), which land in the same leaves, while readers assert that
// every even key is always present and no key ≡ 3 (mod 4), never inserted,
// ever is. A torn seqlock read shows up as a vanished or phantom key.
func TestABTreeStableKeysNeverVanish(t *testing.T) {
	const (
		writers  = 2
		readers  = 2
		keyRange = 512
		opsEach  = 20000
	)
	for _, recName := range []string{"debra", "hp", "nbrplus"} {
		t.Run(recName, func(t *testing.T) {
			set, _, _ := newTestSet(t, "abtree", recName, writers+readers)
			for k := int64(0); k < keyRange; k += 2 {
				set.Insert(0, k)
			}
			var stop atomic.Bool
			var wwg, rwg sync.WaitGroup
			for tid := 0; tid < writers; tid++ {
				wwg.Add(1)
				go func(tid int) {
					defer wwg.Done()
					rng := rand.New(rand.NewSource(int64(tid)))
					for i := 0; i < opsEach; i++ {
						key := rng.Int63n(keyRange/4)*4 + 1
						if rng.Intn(2) == 0 {
							set.Insert(tid, key)
						} else {
							set.Delete(tid, key)
						}
					}
				}(tid)
			}
			for tid := writers; tid < writers+readers; tid++ {
				rwg.Add(1)
				go func(tid int) {
					defer rwg.Done()
					rng := rand.New(rand.NewSource(int64(tid)))
					for !stop.Load() {
						even := rng.Int63n(keyRange/2) * 2
						if !set.Contains(tid, even) {
							t.Errorf("stable key %d vanished", even)
							return
						}
						if absent := rng.Int63n(keyRange/4)*4 + 3; set.Contains(tid, absent) {
							t.Errorf("never-inserted key %d present", absent)
							return
						}
					}
				}(tid)
			}
			wwg.Wait()
			stop.Store(true)
			rwg.Wait()
			checkABTree(t, set)
		})
	}
}
