package hwtree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := NewTree()
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("len=%d height=%d", tr.Len(), tr.Height())
	}
	if _, ok, _ := tr.Get(5); ok {
		t.Fatal("empty get found a key")
	}
	if path, _ := tr.PathTo(5); len(path) != 1 {
		t.Fatalf("empty tree: pathlen=%d", len(path))
	}
	if removed, _ := tr.Delete(5); removed {
		t.Fatal("deleted from empty tree")
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetSequential(t *testing.T) {
	tr := NewTree()
	for i := uint64(0); i < 5000; i++ {
		tr.Put(i, i*3)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		v, ok, leaf := tr.Get(i)
		if !ok || v != i*3 {
			t.Fatalf("key %d: v=%d ok=%v", i, v, ok)
		}
		path, _ := tr.PathTo(i)
		if len(path) != tr.Height() || path[len(path)-1] != leaf {
			t.Fatalf("path %v: want height %d ending in leaf %d", path, tr.Height(), leaf)
		}
	}
	if tr.Len() != 5000 {
		t.Fatalf("len = %d", tr.Len())
	}
	// 5000 keys with 16-key leaves and fan-out <=3 needs height >= 6.
	if tr.Height() < 6 {
		t.Fatalf("height = %d, implausibly shallow", tr.Height())
	}
}

func TestPutTouchesNodes(t *testing.T) {
	tr := NewTree()
	tc := tr.Put(1, 1)
	if len(tc.IDs) == 0 {
		t.Fatal("insert touched no nodes")
	}
	// Filling one leaf then overflowing must touch >1 node (split).
	for i := uint64(2); i <= LeafKeys; i++ {
		tr.Put(i, i)
	}
	tc = tr.Put(100, 100)
	if len(tc.IDs) < 2 {
		t.Fatalf("split touched %d nodes", len(tc.IDs))
	}
}

func TestDeleteRandomAll(t *testing.T) {
	tr := NewTree()
	const n = 3000
	rng := rand.New(rand.NewSource(5))
	perm := rng.Perm(n)
	for _, i := range perm {
		tr.Put(uint64(i), uint64(i))
	}
	perm2 := rng.Perm(n)
	for step, i := range perm2 {
		removed, tc := tr.Delete(uint64(i))
		if !removed {
			t.Fatalf("step %d: key %d not found", step, i)
		}
		if len(tc.IDs) == 0 {
			t.Fatalf("step %d: delete touched nothing", step)
		}
		if step%250 == 0 {
			if err := tr.Check(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("after drain: len=%d height=%d", tr.Len(), tr.Height())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchesMapModel(t *testing.T) {
	type op struct {
		Key uint16
		Val uint16
		Del bool
	}
	prop := func(ops []op) bool {
		tr := NewTree()
		ref := make(map[uint64]uint64)
		for _, o := range ops {
			k := uint64(o.Key % 300)
			if o.Del {
				_, want := ref[k]
				delete(ref, k)
				removed, _ := tr.Delete(k)
				if removed != want {
					return false
				}
			} else {
				ref[k] = uint64(o.Val)
				tr.Put(k, uint64(o.Val))
			}
		}
		if tr.Len() != len(ref) || tr.Check() != nil {
			return false
		}
		for k, v := range ref {
			got, ok, _ := tr.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestNodeReuse(t *testing.T) {
	tr := NewTree()
	for i := uint64(0); i < 1000; i++ {
		tr.Put(i, i)
	}
	grown := len(tr.pool)
	for i := uint64(0); i < 1000; i++ {
		tr.Delete(i)
	}
	for i := uint64(0); i < 1000; i++ {
		tr.Put(i, i)
	}
	if len(tr.pool) > grown+grown/2 {
		t.Errorf("pool grew from %d to %d; free list not reused", grown, len(tr.pool))
	}
	if tr.LiveNodes() <= 0 {
		t.Error("no live nodes reported")
	}
}

func TestPathToNeighbors(t *testing.T) {
	tr := NewTree()
	for i := uint64(0); i < 200; i++ {
		tr.Put(i, i)
	}
	path, neighbors := tr.PathTo(100)
	if len(path) != tr.Height() {
		t.Fatalf("path length %d != height %d", len(path), tr.Height())
	}
	if len(neighbors) == 0 {
		t.Fatal("mid-tree key has no leaf neighbors")
	}
	// Neighbors must be distinct from the leaf itself.
	leafID := path[len(path)-1]
	for _, nb := range neighbors {
		if nb == leafID {
			t.Fatal("leaf returned as its own neighbor")
		}
	}
}

func BenchmarkHWTreePut(b *testing.B) {
	tr := NewTree()
	for i := 0; i < b.N; i++ {
		tr.Put(uint64(i), uint64(i))
	}
}

func BenchmarkHWTreeGet(b *testing.B) {
	tr := NewTree()
	for i := uint64(0); i < 1<<18; i++ {
		tr.Put(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(uint64(i) & (1<<18 - 1))
	}
}
