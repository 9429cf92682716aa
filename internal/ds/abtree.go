package ds

import (
	"runtime"
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

// A leaf's vn word packs a seqlock version (high 32 bits, odd while an
// in-place edit is in flight) with the leaf's key count (low 32 bits), so
// one load yields a count that matches the keys read under it.
const (
	abVersionOne = 1 << 32
	abCountMask  = abVersionOne - 1
)

// abNode is one ABtree node. A leaf (in == nil) holds its sorted keys
// inline in lk[:count] and is edited in place under a seqlock: writers hold
// the leaf's slot owner and bracket each edit with an odd vn, and readers
// retry until they scan the keys under one even vn. An edit still swaps in a
// freshly allocated Object and retires the old one, so the modeled
// allocator and reclaimer see the copy-on-write lifecycle of the paper's
// tree. Internal nodes keep their state in in and are replaced
// copy-on-write. A node's slot in its parent is guarded by the parent's
// in.mu (or the tree's rootMu for the root).
type abNode struct {
	obj atomic.Pointer[simalloc.Object]
	in  *abInner
	vn  atomic.Uint64
	lk  [abLeafCap]int64
}

// abInner is the part of a node only internal nodes have: immutable keys
// and mutable (atomic) child slots, guarded by mu along with retirement.
type abInner struct {
	keys     []int64
	children []atomic.Pointer[abNode] // len(keys)+1 slots
	mu       sync.Mutex
	retired  atomic.Bool
}

// ABTree is a concurrent (a,b)-tree in the style of Brown's lock-free
// ABtree: leaf-oriented, with relaxed rebalancing. An internal node that
// would overflow splits into two halves under a two-child spine in its own
// slot, and the spine is then absorbed into its parent, so the tree grows
// only at the root and stays logarithmic; a parent reduced to two children
// by an empty-leaf removal is absorbed the same way, and a single-child one
// collapses. Lookups are lock-free over atomic child pointers and seqlocked
// leaves; updates lock at most three levels top-down. A successful update
// that neither splits nor empties its leaf edits the leaf in place and
// allocates no Go memory; splits, absorbs and empty-leaf removals build new
// nodes and copy the parent.
type ABTree struct {
	alloc  simalloc.Allocator
	rec    smr.Reclaimer
	guards []*smr.Guard
	root   atomic.Pointer[abNode]
	rootMu sync.Mutex // guards the root slot
	size   *sizeCtr
}

// NewABTree builds an empty tree over the allocator and reclaimer.
func NewABTree(alloc simalloc.Allocator, rec smr.Reclaimer) *ABTree {
	t := &ABTree{alloc: alloc, rec: rec, size: newSizeCtr(alloc.Threads())}
	t.guards = guardsFor(rec, alloc.Threads())
	t.root.Store(t.newLeaf(0, nil))
	return t
}

func (t *ABTree) Name() string { return "abtree" }

// Size returns the number of keys.
func (t *ABTree) Size() int64 { return t.size.total() }

// newObj allocates the simulated memory behind one node.
func (t *ABTree) newObj(tid int) *simalloc.Object {
	obj := t.alloc.Alloc(tid, ABTreeNodeBytes)
	t.rec.OnAlloc(tid, obj)
	return obj
}

// newLeaf builds an unpublished leaf holding a copy of keys.
func (t *ABTree) newLeaf(tid int, keys []int64) *abNode {
	n := &abNode{}
	n.obj.Store(t.newObj(tid))
	n.vn.Store(uint64(copy(n.lk[:], keys)))
	return n
}

// newInternal builds an unpublished internal node over keys with
// len(keys)+1 empty child slots, which the caller fills before publishing
// it.
func (t *ABTree) newInternal(tid int, keys []int64) *abNode {
	n := &abNode{in: &abInner{keys: keys, children: make([]atomic.Pointer[abNode], len(keys)+1)}}
	n.obj.Store(t.newObj(tid))
	return n
}

// newPair builds an unpublished two-child internal node: a and b split by
// the one key in sep.
func (t *ABTree) newPair(tid int, sep []int64, a, b *abNode) *abNode {
	n := t.newInternal(tid, sep)
	n.in.children[0].Store(a)
	n.in.children[1].Store(b)
	return n
}

// abSplice is internal node p's child sequence with slot idx replaced by
// the pair (a, b), or dropped when a is nil. A replacement node fills its
// child slots from it directly, with no temporary slice. p.mu must be held
// while it is read.
type abSplice struct {
	p    *abInner
	idx  int
	a, b *abNode
}

func (s abSplice) at(j int) *abNode {
	switch {
	case j < s.idx:
		return s.p.children[j].Load()
	case s.a == nil:
		return s.p.children[j+1].Load()
	case j == s.idx:
		return s.a
	case j == s.idx+1:
		return s.b
	}
	return s.p.children[j-1].Load()
}

// rebuild builds the copy-on-write replacement of an internal node: keys
// over the child sequence kids. When that would exceed abInternalCap
// children it builds two halves under a two-child spine instead and
// reports spine, and the caller must absorb the spine once it is
// published.
func (t *ABTree) rebuild(tid int, keys []int64, kids abSplice) (r *abNode, spine bool) {
	if len(keys) < abInternalCap {
		return t.fill(tid, keys, kids, 0), false
	}
	m := (len(keys) + 1) / 2
	lo := t.fill(tid, keys[:m-1:m-1], kids, 0)
	hi := t.fill(tid, keys[m:], kids, m)
	return t.newPair(tid, keys[m-1:m:m], lo, hi), true
}

// fill builds an internal node over keys whose children are kids from
// index from on.
func (t *ABTree) fill(tid int, keys []int64, kids abSplice, from int) *abNode {
	n := t.newInternal(tid, keys)
	for j := range n.in.children {
		n.in.children[j].Store(kids.at(from + j))
	}
	return n
}

// withKey returns a copy of keys with k inserted at i.
func withKey(keys []int64, i int, k int64) []int64 {
	out := make([]int64, len(keys)+1)
	copy(out, keys[:i])
	out[i] = k
	copy(out[i+1:], keys[i:])
	return out
}

func (t *ABTree) retire(tid int, n *abNode) { t.rec.Retire(tid, n.obj.Load()) }

// childIndex returns the child slot covering key: the first i with
// key < keys[i], else len(keys). Internal nodes hold up to abInternalCap-1
// keys, past the width where binary search beats a scan. It is a
// hand-written loop rather than sort.Search, whose predicate closure costs
// an indirect call per probe on the hottest path.
func childIndex(keys []int64, key int64) int {
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

// leafRead scans leaf n for key under its seqlock. It returns the first i
// with lk[i] >= key (else the count), whether lk[i] is key, and the vn word
// the scan was consistent with; the count is v&abCountMask. The scan is
// linear: a leaf holds at most abLeafCap keys and about half that in steady
// state, where a scan beats binary search (BenchmarkABTreeSearch). A read
// that overlaps an edit yields and retries.
func leafRead(n *abNode, key int64) (i int, found bool, v uint64) {
	for {
		v := n.vn.Load()
		if v&abVersionOne == 0 {
			cnt := int(v & abCountMask)
			i, found := cnt, false
			for j := 0; j < cnt; j++ {
				if k := atomic.LoadInt64(&n.lk[j]); k >= key {
					i, found = j, k == key
					break
				}
			}
			if n.vn.Load() == v {
				return i, found, v
			}
		}
		runtime.Gosched()
	}
}

// insertAt shifts lk[i:cnt] up one slot and stores key at i. The caller
// holds the leaf's slot owner, so plain reads see the latest keys; the
// stores are atomic because leafRead scans concurrently.
func (n *abNode) insertAt(i, cnt int, key int64) {
	for j := cnt; j > i; j-- {
		atomic.StoreInt64(&n.lk[j], n.lk[j-1])
	}
	atomic.StoreInt64(&n.lk[i], key)
}

// removeAt shifts lk[i+1:cnt] down one slot, dropping the key at i. The
// locking is insertAt's.
func (n *abNode) removeAt(i, cnt int) {
	for j := i + 1; j < cnt; j++ {
		atomic.StoreInt64(&n.lk[j-1], n.lk[j])
	}
}

// editLeaf inserts key at i (insert) or removes the key at i (!insert) in
// place. The caller holds the leaf's slot through lockLeaf with version v.
// The model sees a copy-on-write replacement: the new Object is allocated
// before the edit and swapped in inside the odd window, and the old one is
// returned for the caller to retire once it has unlocked.
func (t *ABTree) editLeaf(tid int, n *abNode, v uint64, i int, key int64, insert bool) (old *simalloc.Object) {
	obj := t.newObj(tid)
	cnt := int(v & abCountMask)
	n.vn.Store(v + abVersionOne)
	if insert {
		n.insertAt(i, cnt, key)
		cnt++
	} else {
		n.removeAt(i, cnt)
		cnt--
	}
	old = n.obj.Swap(obj)
	n.vn.Store((v+2*abVersionOne)&^abCountMask | uint64(cnt))
	return old
}

type abPathEntry struct {
	n   *abNode
	idx int
}

// abMaxDepth is how many path entries a descent keeps on the stack. Spines
// are absorbed into their parents, so the tree stays logarithmic: the
// paper's steady state has two internal levels. A deeper descent spills the
// rest of its path to the heap.
const abMaxDepth = 8

// abPath records a descent: each internal node visited and the child slot
// taken from it, indexed by depth. Each descent refills it, root first.
type abPath struct {
	near [abMaxDepth]abPathEntry
	far  []abPathEntry
}

func (p *abPath) push(depth int, e abPathEntry) {
	if depth < abMaxDepth {
		p.near[depth] = e
		return
	}
	p.far = append(p.far, e)
}

func (p *abPath) at(depth int) abPathEntry {
	if depth < abMaxDepth {
		return p.near[depth]
	}
	return p.far[depth-abMaxDepth]
}

// descend walks from the root to the leaf covering key, recording the path
// and publishing protection for each visited node through tid's guard (a
// concrete call the compiler can see through); epoch-based reclaimers have
// a nil guard and skip publication entirely.
func (t *ABTree) descend(tid int, key int64, path *abPath) (leaf *abNode, depth int) {
	path.far = path.far[:0]
	g := t.guards[tid]
	cur := t.root.Load()
	if g != nil {
		g.Protect(0, cur.obj.Load())
	}
	for cur.in != nil {
		idx := childIndex(cur.in.keys, key)
		path.push(depth, abPathEntry{cur, idx})
		depth++
		cur = cur.in.children[idx].Load()
		if g != nil {
			g.Protect(depth%3, cur.obj.Load())
		}
	}
	return cur, depth
}

// Contains reports whether key is present. The traversal is lock-free.
func (t *ABTree) Contains(tid int, key int64) bool {
	t.rec.BeginOp(tid)
	defer t.rec.EndOp(tid)
	var path abPath
	leaf, _ := t.descend(tid, key, &path)
	_, found, _ := leafRead(leaf, key)
	return found
}

// abSlot names one child slot: the tree's root slot when p is nil, else
// p.children[idx]. It is a value, not a pair of closures, so locking and
// storing through it allocates nothing.
type abSlot struct {
	t   *ABTree
	p   *abInner
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
func (t *ABTree) lockSlot(path *abPath, depth int, n *abNode) (abSlot, bool) {
	if depth == 0 {
		t.rootMu.Lock()
		if t.root.Load() != n {
			t.rootMu.Unlock()
			return abSlot{}, false
		}
		return abSlot{t: t}, true
	}
	e := path.at(depth - 1)
	p := e.n.in
	p.mu.Lock()
	if p.retired.Load() || p.children[e.idx].Load() != n {
		p.mu.Unlock()
		return abSlot{}, false
	}
	return abSlot{t: t, p: p, idx: e.idx}, true
}

// lockLeaf locks leaf's slot like lockSlot and also validates that the leaf
// still holds vn word v, the one its leafRead returned. An in-place edit
// keeps the leaf's identity, so the version stands in for the pointer check
// copy-on-write gave. Every leaf writer holds the slot owner, so the leaf's
// keys stay as read until unlock.
func (t *ABTree) lockLeaf(path *abPath, depth int, leaf *abNode, v uint64) (abSlot, bool) {
	s, ok := t.lockSlot(path, depth, leaf)
	if ok && leaf.vn.Load() != v {
		s.unlock()
		return abSlot{}, false
	}
	return s, ok
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
	var path abPath
	leaf, depth := t.descend(tid, key, &path)
	i, found, v := leafRead(leaf, key)
	if found {
		return false, true
	}
	if v&abCountMask < abLeafCap {
		// Common case: insert key into the leaf in place.
		s, ok := t.lockLeaf(&path, depth, leaf, v)
		if !ok {
			return false, false
		}
		old := t.editLeaf(tid, leaf, v, i, key, true)
		s.unlock()
		t.rec.Retire(tid, old)
		t.size.add(tid, 1)
		return true, true
	}
	if !t.splitLeaf(tid, &path, depth, leaf, v, i, key) {
		return false, false
	}
	t.size.add(tid, 1)
	return true, true
}

// splitLeaf replaces a full leaf, read at version v, with two halves that
// together hold its keys plus key (which belongs at i). For a root leaf the
// two halves hang off a new internal root; otherwise the parent is replaced
// copy-on-write with the extra child. A parent that would overflow is
// replaced by a two-child spine over its two halves, which absorb then
// merges into the grandparent, so the tree grows only at the root.
func (t *ABTree) splitLeaf(tid int, path *abPath, depth int, leaf *abNode, v uint64, i int, key int64) bool {
	var up abSlot
	if depth > 0 {
		// Lock the parent's slot owner first (top-down), then the parent.
		var ok bool
		if up, ok = t.lockSlot(path, depth-1, path.at(depth-1).n); !ok {
			return false
		}
	}
	s, ok := t.lockLeaf(path, depth, leaf, v)
	if !ok {
		if depth > 0 {
			up.unlock()
		}
		return false
	}

	// The leaf is full and stable while its slot is locked.
	var all [abLeafCap + 1]int64
	copy(all[:i], leaf.lk[:i])
	all[i] = key
	copy(all[i+1:], leaf.lk[i:])
	const mid = (abLeafCap + 1) / 2
	left := t.newLeaf(tid, all[:mid])
	right := t.newLeaf(tid, all[mid:])

	if depth == 0 {
		s.store(t.newPair(tid, []int64{all[mid]}, left, right))
		s.unlock()
		t.retire(tid, leaf)
		return true
	}

	// Copy-on-write parent with the split child. Child slots are stable
	// while p.mu is held.
	e := path.at(depth - 1)
	p, idx := e.n.in, e.idx
	r, spine := t.rebuild(tid, withKey(p.keys, idx, all[mid]), abSplice{p, idx, left, right})
	p.retired.Store(true)
	up.store(r)
	s.unlock()
	up.unlock()
	t.retire(tid, leaf)
	t.retire(tid, e.n)
	if spine {
		t.absorb(tid, path, depth-1, r, key)
	}
	return true
}

// absorb merges s, a two-child internal node just published in place of the
// node at path depth d, into its parent g: g is replaced copy-on-write with
// s's separator and two children in s's slot. It locks top-down (g's slot
// owner, then g.mu, validating that the slot still holds s, then s.mu). If
// g overflows in turn, its replacement is a spine and the step repeats one
// level up; a two-child root stays. When validation fails, absorb
// re-descends by key, which s's range still covers while s is reachable,
// and retries wherever s now hangs. If s is gone or has become the root,
// whoever replaced it left no two-child node behind.
func (t *ABTree) absorb(tid int, path *abPath, d int, s *abNode, key int64) {
	for d > 0 {
		e := path.at(d - 1)
		if up, ok := t.lockSlot(path, d-1, e.n); ok {
			g := e.n.in
			g.mu.Lock()
			if g.children[e.idx].Load() == s {
				in := s.in
				in.mu.Lock()
				r, spine := t.rebuild(tid, withKey(g.keys, e.idx, in.keys[0]),
					abSplice{g, e.idx, in.children[0].Load(), in.children[1].Load()})
				g.retired.Store(true)
				in.retired.Store(true)
				up.store(r)
				in.mu.Unlock()
				g.mu.Unlock()
				up.unlock()
				t.retire(tid, e.n)
				t.retire(tid, s)
				if !spine {
					return
				}
				s, d = r, d-1
				continue
			}
			g.mu.Unlock()
			up.unlock()
		}
		// The path went stale: find s again.
		_, depth := t.descend(tid, key, path)
		d = depth - 1
		for d >= 0 && path.at(d).n != s {
			d--
		}
		if d < 0 {
			return
		}
	}
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
	var path abPath
	leaf, depth := t.descend(tid, key, &path)
	i, found, v := leafRead(leaf, key)
	if !found {
		return false, true
	}

	if v&abCountMask > 1 || depth == 0 {
		// Remove key from the leaf in place (an empty root leaf is fine).
		s, ok := t.lockLeaf(&path, depth, leaf, v)
		if !ok {
			return false, false
		}
		old := t.editLeaf(tid, leaf, v, i, key, false)
		s.unlock()
		t.rec.Retire(tid, old)
		t.size.add(tid, -1)
		return true, true
	}

	// The leaf empties: remove it from its parent.
	if !t.removeEmptyLeaf(tid, &path, depth, leaf, v, key) {
		return false, false
	}
	t.size.add(tid, -1)
	return true, true
}

// removeEmptyLeaf replaces the parent copy-on-write without leaf, whose one
// key (read at version v) is being deleted. A parent reduced to a single
// child collapses: the surviving child takes the parent's slot directly. A
// non-root parent reduced to two children is absorbed into its own parent.
func (t *ABTree) removeEmptyLeaf(tid int, path *abPath, depth int, leaf *abNode, v uint64, key int64) bool {
	e := path.at(depth - 1)
	p, idx := e.n.in, e.idx
	up, ok := t.lockSlot(path, depth-1, e.n)
	if !ok {
		return false
	}
	s, ok := t.lockLeaf(path, depth, leaf, v)
	if !ok {
		up.unlock()
		return false
	}

	var r *abNode
	if len(p.children) == 2 {
		// Collapse: the sibling takes p's place.
		r = p.children[1-idx].Load()
	} else {
		ki := min(idx, len(p.keys)-1)
		pk := make([]int64, 0, len(p.keys)-1)
		pk = append(pk, p.keys[:ki]...)
		pk = append(pk, p.keys[ki+1:]...)
		r = t.fill(tid, pk, abSplice{p: p, idx: idx}, 0)
	}
	p.retired.Store(true)
	up.store(r)
	s.unlock()
	up.unlock()
	t.retire(tid, leaf)
	t.retire(tid, e.n)
	if r.in != nil && len(r.in.children) == 2 {
		t.absorb(tid, path, depth-1, r, key)
	}
	return true
}
