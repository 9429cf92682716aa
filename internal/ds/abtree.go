package ds

import (
	"sync"
	"sync/atomic"

	"repro/internal/simalloc"
	"repro/internal/smr"
)

// ABtree sizing. Leaves hold up to abLeafCap keys; internal nodes hold up to
// abInternalCap children. The wide internal fan-out keeps internal splits
// rare after prefill, so the steady-state allocation profile is the paper's:
// one or two 240-byte nodes allocated and retired per update.
const (
	abLeafCap     = 16
	abInternalCap = 64
)

// abNode is one ABtree node. Leaves are immutable after construction and
// replaced copy-on-write; internal nodes have immutable key arrays but
// mutable (atomic) child slots, guarded by mu. A node's slot in its parent
// is guarded by the parent's mu (or the tree's rootMu for the root).
type abNode struct {
	obj      *simalloc.Object
	leaf     bool
	keys     []int64
	children []atomic.Pointer[abNode] // internal: len(keys)+1 slots
	mu       sync.Mutex               // internal nodes: guards child slots and retirement
	retired  atomic.Bool
}

// ABTree is a concurrent (a,b)-tree in the style of Brown's lock-free
// ABtree: leaf-oriented, copy-on-write leaves, relaxed rebalancing
// (overfull internal nodes are split locally, single-child internal nodes
// collapse). Lookups are lock-free over atomic child pointers; updates lock
// at most two ancestor levels top-down.
type ABTree struct {
	alloc  simalloc.Allocator
	rec    smr.Reclaimer
	disp   protectDispatch
	root   atomic.Pointer[abNode]
	rootMu sync.Mutex // guards the root slot
	size   *sizeCtr
}

// NewABTree builds an empty tree over the allocator and reclaimer.
func NewABTree(alloc simalloc.Allocator, rec smr.Reclaimer) *ABTree {
	t := &ABTree{alloc: alloc, rec: rec, size: newSizeCtr(alloc.Threads())}
	t.disp = newProtectDispatch(rec, alloc.Threads())
	t.root.Store(t.newLeaf(0, nil))
	return t
}

func (t *ABTree) Name() string { return "abtree" }

// Size returns the number of keys.
func (t *ABTree) Size() int64 { return t.size.total() }

func (t *ABTree) newNode(tid int) *abNode {
	obj := t.alloc.Alloc(tid, ABTreeNodeBytes)
	t.rec.OnAlloc(tid, obj)
	return &abNode{obj: obj}
}

func (t *ABTree) newLeaf(tid int, keys []int64) *abNode {
	n := t.newNode(tid)
	n.leaf = true
	n.keys = keys
	return n
}

// newInternal builds an internal node from keys and children. children must
// have len(keys)+1 entries.
func (t *ABTree) newInternal(tid int, keys []int64, children []*abNode) *abNode {
	n := t.newNode(tid)
	n.keys = keys
	n.children = make([]atomic.Pointer[abNode], len(children))
	for i, c := range children {
		n.children[i].Store(c)
	}
	return n
}

func (t *ABTree) retire(tid int, n *abNode) { t.rec.Retire(tid, n.obj) }

// The searches are hand-written loops rather than sort.Search: its
// predicate closure costs an indirect call per probe on the hottest path.

// childIndex returns the child slot covering key: the first i with
// key < keys[i], else len(keys). Internal nodes hold up to abInternalCap-1
// keys, past the width where binary search beats a scan.
func childIndex(n *abNode, key int64) int {
	keys := n.keys
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if key < keys[m] {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// lowerBound returns the first i with keys[i] >= key, else len(keys). It
// searches leaves only, which hold at most abLeafCap keys and about half
// that in steady state, where a linear scan beats binary search
// (BenchmarkABTreeSearch).
func lowerBound(keys []int64, key int64) int {
	for i, k := range keys {
		if k >= key {
			return i
		}
	}
	return len(keys)
}

// leafHas reports whether a leaf contains key.
func leafHas(n *abNode, key int64) bool {
	i := lowerBound(n.keys, key)
	return i < len(n.keys) && n.keys[i] == key
}

type abPathEntry struct {
	n   *abNode
	idx int
}

const abMaxDepth = 48

// descend walks from the root to the leaf covering key, recording the path
// and publishing protection for each visited node. Protection routes through
// the guard when the reclaimer exposes one (a concrete call the compiler can
// see through), skips publication entirely for epoch-based reclaimers
// (nil guard, nil legacy), and falls back to the Reclaimer interface only
// under smr.LegacyDispatch.
func (t *ABTree) descend(tid int, key int64, path *[abMaxDepth]abPathEntry) (leaf *abNode, depth int) {
	g, legacy := t.disp.handles(tid)
	cur := t.root.Load()
	if g != nil {
		g.Protect(0, cur.obj)
	} else if legacy != nil {
		legacy.Protect(tid, 0, cur.obj)
	}
	for !cur.leaf {
		idx := childIndex(cur, key)
		path[depth] = abPathEntry{cur, idx}
		depth++
		cur = cur.children[idx].Load()
		if g != nil {
			g.Protect(depth%3, cur.obj)
		} else if legacy != nil {
			legacy.Protect(tid, depth%3, cur.obj)
		}
	}
	return cur, depth
}

// Contains reports whether key is present. The traversal is lock-free.
func (t *ABTree) Contains(tid int, key int64) bool {
	t.rec.BeginOp(tid)
	defer t.rec.EndOp(tid)
	var path [abMaxDepth]abPathEntry
	leaf, _ := t.descend(tid, key, &path)
	return leafHas(leaf, key)
}

// abSlot names one child slot: the tree's root slot when p is nil, else
// p.children[idx]. It is a value, not a pair of closures, so locking and
// storing through it allocates nothing.
type abSlot struct {
	t   *ABTree
	p   *abNode
	idx int
}

// store publishes r in the slot. The slot's owner must be locked.
func (s abSlot) store(r *abNode) {
	if s.p == nil {
		s.t.root.Store(r)
		return
	}
	s.p.children[s.idx].Store(r)
}

// unlock releases the slot's owner (rootMu or the parent's mu).
func (s abSlot) unlock() {
	if s.p == nil {
		s.t.rootMu.Unlock()
		return
	}
	s.p.mu.Unlock()
}

// lockSlot locks the owner of the node at path depth (the parent's mu, or
// rootMu for the root) and validates the slot still points at n. It returns
// the locked slot, or false when validation fails and the caller must retry.
func (t *ABTree) lockSlot(path *[abMaxDepth]abPathEntry, depth int, n *abNode) (abSlot, bool) {
	if depth == 0 {
		t.rootMu.Lock()
		if t.root.Load() != n {
			t.rootMu.Unlock()
			return abSlot{}, false
		}
		return abSlot{t: t}, true
	}
	p := path[depth-1].n
	idx := path[depth-1].idx
	p.mu.Lock()
	if p.retired.Load() || p.children[idx].Load() != n {
		p.mu.Unlock()
		return abSlot{}, false
	}
	return abSlot{t: t, p: p, idx: idx}, true
}

// Insert adds key, reporting whether it was absent.
func (t *ABTree) Insert(tid int, key int64) bool {
	t.rec.BeginOp(tid)
	defer t.rec.EndOp(tid)
	for {
		if ok, done := t.tryInsert(tid, key); done {
			return ok
		}
	}
}

func (t *ABTree) tryInsert(tid int, key int64) (inserted, done bool) {
	var path [abMaxDepth]abPathEntry
	leaf, depth := t.descend(tid, key, &path)
	if leafHas(leaf, key) {
		return false, true
	}
	if len(leaf.keys) < abLeafCap {
		// Common case: replace the leaf with a copy containing key.
		s, ok := t.lockSlot(&path, depth, leaf)
		if !ok {
			return false, false
		}
		s.store(t.newLeaf(tid, insertSorted(leaf.keys, key)))
		s.unlock()
		t.retire(tid, leaf)
		t.size.add(tid, 1)
		return true, true
	}
	if !t.splitLeaf(tid, &path, depth, leaf, key) {
		return false, false
	}
	t.size.add(tid, 1)
	return true, true
}

// splitLeaf replaces a full leaf with two halves. For a root leaf the two
// halves hang off a new internal root; otherwise the parent is replaced
// copy-on-write with the extra child (collapsing into a local two-child
// split when the parent itself would overflow).
func (t *ABTree) splitLeaf(tid int, path *[abMaxDepth]abPathEntry, depth int, leaf *abNode, key int64) bool {
	newKeys := insertSorted(leaf.keys, key)
	mid := len(newKeys) / 2
	sep := newKeys[mid]

	if depth == 0 {
		s, ok := t.lockSlot(path, 0, leaf)
		if !ok {
			return false
		}
		left := t.newLeaf(tid, newKeys[:mid:mid])
		right := t.newLeaf(tid, newKeys[mid:])
		s.store(t.newInternal(tid, []int64{sep}, []*abNode{left, right}))
		s.unlock()
		t.retire(tid, leaf)
		return true
	}

	p := path[depth-1].n
	idx := path[depth-1].idx
	// Lock the parent's slot owner first (top-down), then the parent.
	up, ok := t.lockSlot(path, depth-1, p)
	if !ok {
		return false
	}
	s, ok := t.lockSlot(path, depth, leaf)
	if !ok {
		up.unlock()
		return false
	}

	left := t.newLeaf(tid, newKeys[:mid:mid])
	right := t.newLeaf(tid, newKeys[mid:])

	// Copy-on-write parent with the split child. Child slots are stable
	// while p.mu is held.
	pk := make([]int64, 0, len(p.keys)+1)
	pk = append(pk, p.keys[:idx]...)
	pk = append(pk, sep)
	pk = append(pk, p.keys[idx:]...)
	pc := make([]*abNode, 0, len(p.children)+1)
	for i := range p.children {
		if i == idx {
			pc = append(pc, left, right)
			continue
		}
		pc = append(pc, p.children[i].Load())
	}

	var replacement *abNode
	if len(pc) <= abInternalCap {
		replacement = t.newInternal(tid, pk, pc)
	} else {
		// The parent would overflow: split it locally into two internal
		// nodes under a new two-child spine (relaxed rebalancing; the
		// spine collapses later if it goes single-child).
		m := len(pc) / 2
		lo := t.newInternal(tid, pk[:m-1:m-1], pc[:m:m])
		hi := t.newInternal(tid, pk[m:], pc[m:])
		replacement = t.newInternal(tid, []int64{pk[m-1]}, []*abNode{lo, hi})
	}
	p.retired.Store(true)
	up.store(replacement)
	s.unlock()
	up.unlock()
	t.retire(tid, leaf)
	t.retire(tid, p)
	return true
}

// Delete removes key, reporting whether it was present.
func (t *ABTree) Delete(tid int, key int64) bool {
	t.rec.BeginOp(tid)
	defer t.rec.EndOp(tid)
	for {
		if ok, done := t.tryDelete(tid, key); done {
			return ok
		}
	}
}

func (t *ABTree) tryDelete(tid int, key int64) (deleted, done bool) {
	var path [abMaxDepth]abPathEntry
	leaf, depth := t.descend(tid, key, &path)
	if !leafHas(leaf, key) {
		return false, true
	}
	newKeys := removeSorted(leaf.keys, key)

	if len(newKeys) > 0 || depth == 0 {
		// Replace the leaf (an empty root leaf is fine).
		s, ok := t.lockSlot(&path, depth, leaf)
		if !ok {
			return false, false
		}
		s.store(t.newLeaf(tid, newKeys))
		s.unlock()
		t.retire(tid, leaf)
		t.size.add(tid, -1)
		return true, true
	}

	// The leaf empties: remove it from its parent.
	if !t.removeEmptyLeaf(tid, &path, depth, leaf) {
		return false, false
	}
	t.size.add(tid, -1)
	return true, true
}

// removeEmptyLeaf replaces the parent copy-on-write without the emptied
// child. A parent reduced to a single child collapses: the surviving child
// takes the parent's slot directly.
func (t *ABTree) removeEmptyLeaf(tid int, path *[abMaxDepth]abPathEntry, depth int, leaf *abNode) bool {
	p := path[depth-1].n
	idx := path[depth-1].idx
	up, ok := t.lockSlot(path, depth-1, p)
	if !ok {
		return false
	}
	s, ok := t.lockSlot(path, depth, leaf)
	if !ok {
		up.unlock()
		return false
	}

	var replacement *abNode
	if len(p.children) == 2 {
		// Collapse: the sibling takes p's place.
		replacement = p.children[1-idx].Load()
	} else {
		pk := make([]int64, 0, len(p.keys)-1)
		ki := idx
		if ki == len(p.keys) {
			ki = len(p.keys) - 1
		}
		pk = append(pk, p.keys[:ki]...)
		pk = append(pk, p.keys[ki+1:]...)
		pc := make([]*abNode, 0, len(p.children)-1)
		for i := range p.children {
			if i == idx {
				continue
			}
			pc = append(pc, p.children[i].Load())
		}
		replacement = t.newInternal(tid, pk, pc)
	}
	p.retired.Store(true)
	up.store(replacement)
	s.unlock()
	up.unlock()
	t.retire(tid, leaf)
	t.retire(tid, p)
	return true
}

// insertSorted returns a fresh sorted slice equal to keys plus key.
func insertSorted(keys []int64, key int64) []int64 {
	i := lowerBound(keys, key)
	out := make([]int64, 0, len(keys)+1)
	out = append(out, keys[:i]...)
	out = append(out, key)
	out = append(out, keys[i:]...)
	return out
}

// removeSorted returns a fresh sorted slice equal to keys minus key.
func removeSorted(keys []int64, key int64) []int64 {
	i := lowerBound(keys, key)
	out := make([]int64, 0, len(keys)-1)
	out = append(out, keys[:i]...)
	out = append(out, keys[i+1:]...)
	return out
}
