// Package hwtree models the FIDR Cache HW-Engine's hardware B-tree
// (§5.5): a pipelined index mapping table-bucket indexes to cache-line
// locations, with the paper's two modifications to the Yang–Prasanna
// pipelined dynamic search tree:
//
//  1. asymmetric node sizes — small (2-key) non-leaf nodes so every
//     non-leaf level fits single-cycle on-chip memory, with large
//     (16-key) leaf nodes in FPGA-board DRAM, and
//  2. concurrent pipelined updates via speculative execution with a
//     crash/replay controller (Algorithms 1 and 2).
//
// The package has three faces: a functional pool-based B-tree whose nodes
// live in per-level pools like the hardware's per-stage memories
// (tree.go), the speculative concurrent-update executor (spec.go), and
// the throughput/area models that reproduce Figure 13 and Table 5
// (perf.go, area.go).
package hwtree

import (
	"errors"
	"fmt"
	"sort"
)

const (
	// InternalKeys is the non-leaf node key capacity (paper: max 2 keys
	// per node in non-leaf stages, as in the original FPGA tree).
	InternalKeys = 2
	// LeafKeys is the enlarged leaf capacity (paper: 16 keys), the
	// modification that lets non-leaf levels stay on chip.
	LeafKeys = 16
)

// NodeID identifies a node in the pool. The zero value is never a valid
// allocated node; id -1 means "none".
type NodeID int32

const noNode NodeID = -1

type node struct {
	leaf     bool
	n        int // number of keys
	keys     [LeafKeys]uint64
	vals     [LeafKeys]uint64         // leaf payloads
	children [InternalKeys + 1]NodeID // internal fan-out
}

func (nd *node) capKeys() int {
	if nd.leaf {
		return LeafKeys
	}
	return InternalKeys
}

// Tree is the functional hardware tree. It is deliberately pool-based:
// nodes are slots in a flat arena (the per-stage memories), identified by
// NodeID, and every mutating operation reports exactly which slots it
// touched — the information Algorithm 1 needs for conflict detection.
//
// Not safe for concurrent use; concurrency is modeled explicitly by the
// speculative executor.
type Tree struct {
	pool []node
	free []NodeID
	root NodeID
	size int

	touched Touched // the last mutation's write set, see Touched
}

// NewTree returns an empty tree.
func NewTree() *Tree {
	t := &Tree{root: noNode}
	t.root = t.alloc(true)
	return t
}

func (t *Tree) alloc(leaf bool) NodeID {
	if n := len(t.free); n > 0 {
		id := t.free[n-1]
		t.free = t.free[:n-1]
		t.pool[id] = node{leaf: leaf}
		return id
	}
	t.pool = append(t.pool, node{leaf: leaf})
	return NodeID(len(t.pool) - 1)
}

func (t *Tree) dealloc(id NodeID) { t.free = append(t.free, id) }

func (t *Tree) nd(id NodeID) *node { return &t.pool[id] }

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (pipeline stages).
func (t *Tree) Height() int {
	h := 1
	id := t.root
	for !t.nd(id).leaf {
		id = t.nd(id).children[0]
		h++
	}
	return h
}

// LiveNodes returns the number of allocated nodes.
func (t *Tree) LiveNodes() int { return len(t.pool) - len(t.free) }

// Get looks up key, returning its value and the leaf that holds (or would
// hold) it. It records no path; PathTo gives the whole search path.
func (t *Tree) Get(key uint64) (val uint64, ok bool, leaf NodeID) {
	nd := t.nd(t.root)
	for leaf = t.root; !nd.leaf; nd = t.nd(leaf) {
		leaf = nd.children[nd.route(key)]
	}
	if i := nd.find(key); i < nd.n && nd.keys[i] == key {
		return nd.vals[i], true, leaf
	}
	return 0, false, leaf
}

// find returns the first index with keys[i] >= key.
func (nd *node) find(key uint64) int {
	return sort.Search(nd.n, func(i int) bool { return nd.keys[i] >= key })
}

// route returns the child index for key in an internal node.
func (nd *node) route(key uint64) int {
	return sort.Search(nd.n, func(i int) bool { return nd.keys[i] > key })
}

// PathTo returns the search path for key plus the leaf's sibling leaves
// under the same parent. This is the conflict footprint Algorithm 1
// checks ("node or node.neighbor in spec_updated_node"): an update may
// split or merge into an adjacent node, so neighbors are part of the
// speculative read-write set.
func (t *Tree) PathTo(key uint64) (path, neighbors []NodeID) {
	return t.AppendPathTo(nil, nil, key)
}

// AppendPathTo is PathTo appending to caller-owned slices.
func (t *Tree) AppendPathTo(path, neighbors []NodeID, key uint64) ([]NodeID, []NodeID) {
	id := t.root
	var parent NodeID = noNode
	var childIdx int
	for {
		path = append(path, id)
		nd := t.nd(id)
		if nd.leaf {
			if parent != noNode {
				p := t.nd(parent)
				if childIdx > 0 {
					neighbors = append(neighbors, p.children[childIdx-1])
				}
				if childIdx < p.n {
					neighbors = append(neighbors, p.children[childIdx+1])
				}
			}
			return path, neighbors
		}
		parent = id
		childIdx = nd.route(key)
		id = nd.children[childIdx]
	}
}

// Touched accumulates the slots a mutating operation wrote. The tree
// owns the IDs array: a result is valid until the next Put or Delete.
type Touched struct {
	IDs []NodeID
}

func (tc *Touched) add(id NodeID) { tc.IDs = append(tc.IDs, id) }

// Put inserts or updates key. It returns the set of node slots modified
// (including nodes created by splits and every ancestor whose separator
// or child list changed).
func (t *Tree) Put(key, val uint64) Touched {
	tc := &t.touched
	tc.IDs = tc.IDs[:0]
	newID, sep, grew := t.insert(t.root, key, val, tc)
	if newID != noNode {
		newRoot := t.alloc(false)
		r := t.nd(newRoot)
		r.n = 1
		r.keys[0] = sep
		r.children[0] = t.root
		r.children[1] = newID
		t.root = newRoot
		tc.add(newRoot)
	}
	if grew {
		t.size++
	}
	return *tc
}

func (t *Tree) insert(id NodeID, key, val uint64, tc *Touched) (newID NodeID, sep uint64, grew bool) {
	nd := t.nd(id)
	if nd.leaf {
		i := nd.find(key)
		if i < nd.n && nd.keys[i] == key {
			nd.vals[i] = val
			tc.add(id)
			return noNode, 0, false
		}
		if nd.n < nd.capKeys() {
			copy(nd.keys[i+1:nd.n+1], nd.keys[i:nd.n])
			copy(nd.vals[i+1:nd.n+1], nd.vals[i:nd.n])
			nd.keys[i], nd.vals[i] = key, val
			nd.n++
			tc.add(id)
			return noNode, 0, true
		}
		// Split leaf, then insert into the proper half.
		rid := t.alloc(true)
		nd = t.nd(id) // alloc may have moved the pool
		r := t.nd(rid)
		mid := nd.n / 2
		copy(r.keys[:], nd.keys[mid:nd.n])
		copy(r.vals[:], nd.vals[mid:nd.n])
		r.n = nd.n - mid
		nd.n = mid
		target, tid := nd, id
		if key >= r.keys[0] {
			target, tid = r, rid
		}
		j := target.find(key)
		copy(target.keys[j+1:target.n+1], target.keys[j:target.n])
		copy(target.vals[j+1:target.n+1], target.vals[j:target.n])
		target.keys[j], target.vals[j] = key, val
		target.n++
		tc.add(id)
		tc.add(rid)
		_ = tid
		return rid, r.keys[0], true
	}
	ci := nd.route(key)
	child := nd.children[ci]
	childNew, childSep, g := t.insert(child, key, val, tc)
	nd = t.nd(id) // re-acquire after possible pool growth
	if childNew == noNode {
		return noNode, 0, g
	}
	if nd.n < InternalKeys {
		copy(nd.keys[ci+1:nd.n+1], nd.keys[ci:nd.n])
		copy(nd.children[ci+2:nd.n+2], nd.children[ci+1:nd.n+1])
		nd.keys[ci] = childSep
		nd.children[ci+1] = childNew
		nd.n++
		tc.add(id)
		return noNode, 0, g
	}
	// Split internal node around the median of the 3 keys
	// (existing 2 + incoming 1).
	keys := make([]uint64, 0, InternalKeys+1)
	kids := make([]NodeID, 0, InternalKeys+2)
	keys = append(keys, nd.keys[:nd.n]...)
	kids = append(kids, nd.children[:nd.n+1]...)
	keys = append(keys, 0)
	copy(keys[ci+1:], keys[ci:len(keys)-1])
	keys[ci] = childSep
	kids = append(kids, noNode)
	copy(kids[ci+2:], kids[ci+1:len(kids)-1])
	kids[ci+1] = childNew

	midK := len(keys) / 2
	up := keys[midK]
	rid := t.alloc(false)
	nd = t.nd(id)
	r := t.nd(rid)
	// Left keeps keys[:midK], right takes keys[midK+1:].
	nd.n = midK
	copy(nd.keys[:], keys[:midK])
	copy(nd.children[:], kids[:midK+1])
	r.n = len(keys) - midK - 1
	copy(r.keys[:], keys[midK+1:])
	copy(r.children[:], kids[midK+1:])
	tc.add(id)
	tc.add(rid)
	return rid, up, g
}

// Delete removes key, returning whether it was present and the touched
// slots.
func (t *Tree) Delete(key uint64) (bool, Touched) {
	tc := &t.touched
	tc.IDs = tc.IDs[:0]
	removed := t.remove(t.root, key, tc)
	if removed {
		t.size--
	}
	root := t.nd(t.root)
	if !root.leaf && root.n == 0 {
		old := t.root
		t.root = root.children[0]
		t.dealloc(old)
		tc.add(old)
	}
	return removed, *tc
}

func (t *Tree) minKeys(leaf bool) int {
	if leaf {
		return LeafKeys / 2
	}
	return 1 // internal nodes keep >= 1 key (2-3 tree style)
}

func (t *Tree) remove(id NodeID, key uint64, tc *Touched) bool {
	nd := t.nd(id)
	if nd.leaf {
		i := nd.find(key)
		if i >= nd.n || nd.keys[i] != key {
			return false
		}
		copy(nd.keys[i:nd.n-1], nd.keys[i+1:nd.n])
		copy(nd.vals[i:nd.n-1], nd.vals[i+1:nd.n])
		nd.n--
		tc.add(id)
		return true
	}
	ci := nd.route(key)
	removed := t.remove(nd.children[ci], key, tc)
	if removed {
		t.rebalance(id, ci, tc)
	}
	return removed
}

// rebalance repairs underflow of child ci of internal node id.
func (t *Tree) rebalance(id NodeID, ci int, tc *Touched) {
	nd := t.nd(id)
	childID := nd.children[ci]
	child := t.nd(childID)
	if child.n >= t.minKeys(child.leaf) {
		return
	}
	// Borrow from left sibling.
	if ci > 0 {
		lid := nd.children[ci-1]
		l := t.nd(lid)
		if l.n > t.minKeys(l.leaf) {
			t.borrow(id, ci, true, tc)
			return
		}
	}
	// Borrow from right sibling.
	if ci < nd.n {
		rid := nd.children[ci+1]
		r := t.nd(rid)
		if r.n > t.minKeys(r.leaf) {
			t.borrow(id, ci, false, tc)
			return
		}
	}
	// Merge with a sibling.
	if ci > 0 {
		t.mergeChildren(id, ci-1, tc)
	} else {
		t.mergeChildren(id, ci, tc)
	}
}

// borrow rotates one entry from a sibling into child ci.
func (t *Tree) borrow(id NodeID, ci int, fromLeft bool, tc *Touched) {
	nd := t.nd(id)
	childID := nd.children[ci]
	child := t.nd(childID)
	if fromLeft {
		lid := nd.children[ci-1]
		l := t.nd(lid)
		if child.leaf {
			copy(child.keys[1:child.n+1], child.keys[:child.n])
			copy(child.vals[1:child.n+1], child.vals[:child.n])
			child.keys[0] = l.keys[l.n-1]
			child.vals[0] = l.vals[l.n-1]
			child.n++
			l.n--
			nd.keys[ci-1] = child.keys[0]
		} else {
			copy(child.keys[1:child.n+1], child.keys[:child.n])
			copy(child.children[1:child.n+2], child.children[:child.n+1])
			child.keys[0] = nd.keys[ci-1]
			child.children[0] = l.children[l.n]
			child.n++
			nd.keys[ci-1] = l.keys[l.n-1]
			l.n--
		}
		tc.add(lid)
	} else {
		rid := nd.children[ci+1]
		r := t.nd(rid)
		if child.leaf {
			child.keys[child.n] = r.keys[0]
			child.vals[child.n] = r.vals[0]
			child.n++
			copy(r.keys[:r.n-1], r.keys[1:r.n])
			copy(r.vals[:r.n-1], r.vals[1:r.n])
			r.n--
			nd.keys[ci] = r.keys[0]
		} else {
			child.keys[child.n] = nd.keys[ci]
			child.children[child.n+1] = r.children[0]
			child.n++
			nd.keys[ci] = r.keys[0]
			copy(r.keys[:r.n-1], r.keys[1:r.n])
			copy(r.children[:r.n], r.children[1:r.n+1])
			r.n--
		}
		tc.add(rid)
	}
	tc.add(id)
	tc.add(childID)
}

// mergeChildren folds child ci+1 into child ci of node id.
func (t *Tree) mergeChildren(id NodeID, ci int, tc *Touched) {
	nd := t.nd(id)
	lid, rid := nd.children[ci], nd.children[ci+1]
	l, r := t.nd(lid), t.nd(rid)
	if l.leaf {
		copy(l.keys[l.n:], r.keys[:r.n])
		copy(l.vals[l.n:], r.vals[:r.n])
		l.n += r.n
	} else {
		l.keys[l.n] = nd.keys[ci]
		l.n++
		copy(l.keys[l.n:], r.keys[:r.n])
		copy(l.children[l.n:], r.children[:r.n+1])
		l.n += r.n
	}
	copy(nd.keys[ci:nd.n-1], nd.keys[ci+1:nd.n])
	copy(nd.children[ci+1:nd.n], nd.children[ci+2:nd.n+1])
	nd.n--
	t.dealloc(rid)
	tc.add(id)
	tc.add(lid)
	tc.add(rid)
}

// Check validates structural invariants.
func (t *Tree) Check() error {
	count := 0
	var prev uint64
	first := true
	leafDepth := -1
	var walk func(id NodeID, depth int, lo, hi uint64, hasLo, hasHi bool) error
	walk = func(id NodeID, depth int, lo, hi uint64, hasLo, hasHi bool) error {
		nd := t.nd(id)
		if nd.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("hwtree: leaves at depths %d and %d", leafDepth, depth)
			}
			for i := 0; i < nd.n; i++ {
				k := nd.keys[i]
				if hasLo && k < lo {
					return fmt.Errorf("hwtree: key %d below bound", k)
				}
				if hasHi && k >= hi {
					return fmt.Errorf("hwtree: key %d above bound", k)
				}
				if !first && k <= prev {
					return fmt.Errorf("hwtree: keys not ascending (%d after %d)", k, prev)
				}
				prev, first = k, false
				count++
			}
			return nil
		}
		if nd.n < 1 && id != t.root {
			return errors.New("hwtree: internal node with no keys")
		}
		for i := 1; i < nd.n; i++ {
			if nd.keys[i] <= nd.keys[i-1] {
				return errors.New("hwtree: separators not ascending")
			}
		}
		for i := 0; i <= nd.n; i++ {
			clo, chi := lo, hi
			cHasLo, cHasHi := hasLo, hasHi
			if i > 0 {
				clo, cHasLo = nd.keys[i-1], true
			}
			if i < nd.n {
				chi, cHasHi = nd.keys[i], true
			}
			if err := walk(nd.children[i], depth+1, clo, chi, cHasLo, cHasHi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0, 0, 0, false, false); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("hwtree: size %d but counted %d", t.size, count)
	}
	return nil
}
