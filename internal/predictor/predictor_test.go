package predictor

import (
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/hostmodel"
)

func newP(cap int) (*Predictor, *hostmodel.Ledger) {
	l := hostmodel.NewLedger()
	return New(cap, l), l
}

func TestPredictsDuplicates(t *testing.T) {
	p, _ := newP(1024)
	sh := blockcomp.NewShaper(0.5)
	a := sh.Make(1, 4096)
	b := sh.Make(2, 4096)
	if !p.Predict(a) {
		t.Fatal("first sight of a predicted duplicate")
	}
	if !p.Predict(b) {
		t.Fatal("first sight of b predicted duplicate")
	}
	if p.Predict(a) {
		t.Fatal("repeat of a predicted unique")
	}
}

func TestChargesLedger(t *testing.T) {
	p, l := newP(16)
	data := make([]byte, 4096)
	for i := 0; i < 10; i++ {
		data[0] = byte(i)
		p.Predict(data)
	}
	s := l.Snapshot()
	if s.Events[hostmodel.EvPredictorChunk] != 10 || s.CPUNanos[hostmodel.CompPredictor] == 0 {
		t.Fatalf("predictor: %d events, %d ns", s.Events[hostmodel.EvPredictorChunk], s.CPUNanos[hostmodel.CompPredictor])
	}
	if s.MemBytes[hostmodel.PathPredictor] != 10*4096 {
		t.Fatalf("predictor memory = %d", s.MemBytes[hostmodel.PathPredictor])
	}
}

func TestBoundedCapacity(t *testing.T) {
	p, _ := newP(4)
	sh := blockcomp.NewShaper(0.5)
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = sh.Make(uint64(i+1), 4096)
		p.Predict(blocks[i])
	}
	// Early entries must have been evicted: predicting block 0 again
	// should claim unique (it forgot).
	if !p.Predict(blocks[0]) {
		t.Fatal("capacity-4 predictor remembered 8 entries")
	}
	if len(p.sketches) > 4+1 {
		t.Fatalf("sketch table grew to %d", len(p.sketches))
	}
}

func TestConfirmAccuracy(t *testing.T) {
	p, _ := newP(16)
	p.Confirm(true, true)
	p.Confirm(true, false)
	p.Confirm(false, false)
	p.Confirm(false, true)
	s := p.Stats()
	if s.TrueUnique != 1 || s.FalseUnique != 1 || s.TrueDuplicate != 1 || s.FalseDuplicate != 1 {
		t.Fatalf("outcome counts wrong: %+v", s)
	}
	if s.Accuracy() != 0.5 {
		t.Fatalf("accuracy = %v", s.Accuracy())
	}
}

func TestAccuracyOnShapedStream(t *testing.T) {
	// On a stream with heavy duplication in a tight window the
	// predictor should be right most of the time.
	p, _ := newP(4096)
	sh := blockcomp.NewShaper(0.5)
	seen := make(map[uint64]bool)
	for i := 0; i < 4000; i++ {
		seed := uint64(i % 500) // every seed repeats 8 times
		data := sh.Make(seed, 4096)
		pred := p.Predict(data)
		p.Confirm(pred, !seen[seed])
		seen[seed] = true
	}
	if acc := p.Stats().Accuracy(); acc < 0.95 {
		t.Fatalf("accuracy %.3f on easy stream", acc)
	}
}

func TestEmptyAndTinyChunks(t *testing.T) {
	p, _ := newP(4)
	if !p.Predict(nil) {
		t.Fatal("first empty chunk predicted duplicate")
	}
	if p.Predict([]byte{}) {
		t.Fatal("second empty chunk predicted unique")
	}
	p.Predict([]byte{1, 2, 3})
}

func TestStatsZeroAccuracy(t *testing.T) {
	var s Stats
	if s.Accuracy() != 0 {
		t.Fatal("zero stats accuracy nonzero")
	}
}

func BenchmarkPredict4K(b *testing.B) {
	p, _ := newP(1 << 16)
	data := blockcomp.NewShaper(0.5).Make(1, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		data[0] = byte(i)
		p.Predict(data)
	}
}
