package ds

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
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

// TestABTreeSearchMatchesSortSearch checks the hand-written node searches
// against sort.Search on every node length the tree can hold, probing below
// the minimum, above the maximum, at each key and between keys.
func TestABTreeSearchMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= abInternalCap; n++ {
		for trial := 0; trial < 4; trial++ {
			keys := sortedKeys(rng, n)
			node := &abNode{keys: keys}
			probes := []int64{-1 << 40, 1 << 40}
			for _, k := range keys {
				probes = append(probes, k-1, k, k+1)
			}
			for _, key := range probes {
				wantChild := sort.Search(n, func(i int) bool { return key < keys[i] })
				if got := childIndex(node, key); got != wantChild {
					t.Fatalf("n=%d key=%d: childIndex = %d, want %d (keys %v)", n, key, got, wantChild, keys)
				}
				wantLB := sort.Search(n, func(i int) bool { return keys[i] >= key })
				if got := lowerBound(keys, key); got != wantLB {
					t.Fatalf("n=%d key=%d: lowerBound = %d, want %d (keys %v)", n, key, got, wantLB, keys)
				}
				wantHas := wantLB < n && keys[wantLB] == key
				if got := leafHas(node, key); got != wantHas {
					t.Fatalf("n=%d key=%d: leafHas = %v, want %v (keys %v)", n, key, got, wantHas, keys)
				}
			}
		}
	}
}

// binaryLowerBound is the binary search BenchmarkABTreeSearch weighs
// against the linear lowerBound.
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

// BenchmarkABTreeSearch measures where a linear scan stops beating binary
// search over the node widths the tree uses: leaves hold up to abLeafCap
// keys and internal nodes up to abInternalCap-1. The crossover sets which
// search lowerBound (leaves) and childIndex (internal nodes) use.
func BenchmarkABTreeSearch(b *testing.B) {
	searches := []struct {
		name string
		fn   func([]int64, int64) int
	}{
		{"binary", binaryLowerBound},
		{"linear", lowerBound},
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
	}
}
