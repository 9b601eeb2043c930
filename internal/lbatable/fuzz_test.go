package lbatable

import "testing"

// FuzzRestoreTable: arbitrary bytes must never panic the snapshot
// decoder (or size an allocation from a corrupt length), and valid
// snapshots must round-trip.
//
// CI runs this bounded (make fuzz).
func FuzzRestoreTable(f *testing.F) {
	tb, _ := New(8192)
	tb.AppendChunk(1, 0, 0, 700)
	tb.AppendChunk(2, 0, 768, 900)
	tb.MapLBA(9, 0)
	f.Add(tb.Snapshot())
	// Variable-size chunks, an overwrite (dead bytes), a relocation and
	// a retired container: every section of the format populated.
	tb.Append(3, PBA{Container: 1, Offset: 0, CSize: 5000, RawSize: 12345})
	tb.Append(2, PBA{Container: 1, Offset: 5056, CSize: 60, RawSize: 1})
	tb.Relocate(0, 2, 128)
	tb.RetireContainer(0)
	snap := tb.Snapshot()
	f.Add(snap)
	f.Add(snap[:len(snap)-5])
	huge := append([]byte(nil), snap[:20]...) // entry count 2^56: must not allocate
	huge[19] = 1
	f.Add(huge)
	f.Add([]byte{})
	f.Add([]byte("FIDRLBA2 corrupted tail"))
	f.Add(append([]byte("FIDRLBA1"), snap[8:]...)) // the pre-length format
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := RestoreTable(data)
		if err != nil {
			return
		}
		// A decodable snapshot must re-encode to something decodable
		// with identical observable state.
		again, err := RestoreTable(got.Snapshot())
		if err != nil {
			t.Fatalf("re-snapshot not restorable: %v", err)
		}
		if again.Chunks() != got.Chunks() || again.MappedLBAs() != got.MappedLBAs() {
			t.Fatal("snapshot not stable across round trips")
		}
		for pbn := uint64(0); pbn < got.Chunks(); pbn++ {
			a, _ := got.Resolve(pbn)
			b, _ := again.Resolve(pbn)
			if a != b {
				t.Fatalf("pbn %d resolves to %+v, after a round trip %+v", pbn, a, b)
			}
		}
	})
}
