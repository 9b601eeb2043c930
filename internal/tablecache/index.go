package tablecache

import (
	"fidr/internal/btree"
	"fidr/internal/hostmodel"
	"fidr/internal/hwtree"
)

// swIndex is the baseline's software B+-tree index. Every operation
// burns host CPU — the "small data structures, big CPU bill" behaviour of
// Observation #4 (43.9% of table-caching CPU in Table 2).
type swIndex struct {
	tree   *btree.Tree
	ledger *hostmodel.Ledger
	costs  hostmodel.CostParams
}

func newSWIndex(l *hostmodel.Ledger, costs hostmodel.CostParams) *swIndex {
	return &swIndex{tree: btree.New(), ledger: l, costs: costs}
}

func (s *swIndex) lookup(bucket uint64) (uint64, bool) {
	s.ledger.CPU(hostmodel.CompTreeIndex, s.costs.TreeLookupNs)
	return s.tree.Get(bucket)
}

func (s *swIndex) insert(bucket, line uint64) {
	s.ledger.CPU(hostmodel.CompTreeIndex, s.costs.TreeUpdateNs)
	s.tree.Put(bucket, line)
}

func (s *swIndex) remove(bucket uint64) {
	s.ledger.CPU(hostmodel.CompTreeIndex, s.costs.TreeUpdateNs)
	s.tree.Delete(bucket)
}

// hwIndex is FIDR's Cache HW-Engine tree: the pipelined hardware tree
// with W-way speculative updates. Index operations cost no host CPU; the
// executor's crash rate and the leaf-cache hit rate are measured for the
// Figure 13 throughput model.
type hwIndex struct {
	exec     *hwtree.SpecExecutor
	leafSim  *hwtree.LeafCacheSim
	pendingW int
}

func newHWIndex(width int) (*hwIndex, error) {
	exec, err := hwtree.NewSpecExecutor(hwtree.NewTree(), width)
	if err != nil {
		return nil, err
	}
	return &hwIndex{
		exec: exec,
		// ~1 MB of BRAM leaf cache: 2048 leaves of 512 B.
		leafSim:  hwtree.NewLeafCacheSim(2048),
		pendingW: width,
	}, nil
}

func (h *hwIndex) lookup(bucket uint64) (uint64, bool) {
	// Updates queued ahead of this lookup must land first.
	h.exec.Drain()
	v, ok, leaf := h.exec.Tree().Get(bucket)
	h.leafSim.Access(leaf)
	return v, ok
}

func (h *hwIndex) insert(bucket, line uint64) {
	h.exec.Enqueue(hwtree.Update{Kind: hwtree.UpdateInsert, Key: bucket, Val: line})
	h.drainIfFull()
}

func (h *hwIndex) remove(bucket uint64) {
	h.exec.Enqueue(hwtree.Update{Kind: hwtree.UpdateDelete, Key: bucket})
	h.drainIfFull()
}

// drainIfFull issues a window once enough updates are queued to fill the
// speculative pipeline, matching the engine's batched operation.
func (h *hwIndex) drainIfFull() {
	if h.exec.Pending() >= h.pendingW {
		h.exec.Drain()
	}
}
