package core

import (
	"bytes"
	"errors"
	"testing"
)

// walSeedLog runs a small WAL-attached server in mode m (writes,
// overwrites, a GC pass) and returns the durable log bytes.
func walSeedLog(f *testing.F, m testMode) []byte {
	f.Helper()
	tssd, dssd := walTestDevices()
	dev := NewMemWALDevice()
	w, _ := NewWAL(dev)
	cfg := walTestConfig(FIDRFull, tssd, dssd, w)
	cfg.Chunking = m.chunking
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 48; i++ {
		if err := s.Write(m.addr(i%32), m.payload(i%20)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Compact(0); err != nil {
		f.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		f.Fatal(err)
	}
	dev.Crash() // keep only what was synced
	return append([]byte(nil), dev.buf...)
}

// FuzzWALReplay feeds arbitrary bytes to the log decoder and to recovery.
// Whatever the log looks like — torn, corrupt, frames reordered or
// duplicated, a wrong length header — opening and replaying it must not
// panic; replay applies exactly the clean prefix (the bytes past the
// first invalid frame never matter); every applied record re-encodes to
// a frame that decodes to itself; and recovery over the log either
// succeeds having applied that same prefix, or fails with one of the two
// typed errors — never an untyped error, never a silently shorter replay.
//
// CI runs this bounded (make fuzz); run `go test -fuzz FuzzWALReplay
// ./internal/core/` for an open-ended session.
func FuzzWALReplay(f *testing.F) {
	for _, m := range testModes {
		log := walSeedLog(f, m)
		if len(log) < 4*walFrameSize {
			f.Fatalf("%s seed log has only %d bytes", m.name, len(log))
		}
		f.Add(log)
		f.Add(log[:len(log)-walFrameSize/2]) // torn tail
		flipped := append([]byte(nil), log...)
		flipped[2*walFrameSize+20] ^= 0xFF // corrupt third frame
		f.Add(flipped)
		// Reordered: second and third frames swapped.
		swapped := append([]byte(nil), log...)
		copy(swapped[walFrameSize:], log[2*walFrameSize:3*walFrameSize])
		copy(swapped[2*walFrameSize:], log[walFrameSize:2*walFrameSize])
		f.Add(swapped)
		// Wrong-length frame: the second frame claims a shorter payload.
		short := append([]byte(nil), log...)
		short[walFrameSize] = walPayloadSize - 2
		f.Add(short)
		// Duplicated prefix: the first two frames replayed twice.
		f.Add(append(append([]byte(nil), log[:2*walFrameSize]...), log...))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA5}, 3*walFrameSize))

	f.Fuzz(func(t *testing.T, log []byte) {
		open := func(b []byte) (*WAL, []WALRecord) {
			dev := NewMemWALDevice()
			dev.WriteAt(b, 0)
			w, err := NewWAL(dev)
			if err != nil {
				t.Fatal(err)
			}
			var recs []WALRecord
			if _, err := w.Replay(0, func(r WALRecord) error { recs = append(recs, r); return nil }); err != nil {
				t.Fatal(err)
			}
			return w, recs
		}
		w, recs := open(log)
		prefix := w.Stats().DurableBytes
		if prefix%walFrameSize != 0 || prefix > int64(len(log)) {
			t.Fatalf("durable prefix %d of a %d-byte log", prefix, len(log))
		}
		if len(recs) > int(prefix/walFrameSize) {
			t.Fatalf("%d records applied from %d frames", len(recs), prefix/walFrameSize)
		}
		for i, r := range recs {
			var frame [walFrameSize]byte
			r.encode(frame[:])
			if back, ok := decodeWALRecord(frame[:]); !ok || back != r {
				t.Fatalf("record %d does not survive re-encoding: %+v", i, r)
			}
		}
		if _, again := open(log[:prefix]); len(again) != len(recs) {
			t.Fatalf("replay of the clean prefix applied %d records, of the whole log %d", len(again), len(recs))
		}

		tssd, dssd := walTestDevices()
		r, err := RecoverServer(walTestConfig(FIDRFull, tssd, dssd, w))
		switch {
		case err == nil:
			if n := r.LastRecovery().ReplayedRecords; n != len(recs) {
				t.Fatalf("recovery applied %d records, the log holds %d", n, len(recs))
			}
			if _, err := r.Verify(); err != nil {
				t.Fatalf("fsck after replay: %v", err)
			}
		case errors.Is(err, ErrNoCheckpoint):
			if w.LastSeq() != 0 {
				t.Fatalf("log with records reported as no volume: %v", err)
			}
		case !errors.Is(err, ErrCorruptCheckpoint):
			t.Fatalf("untyped recovery error: %v", err)
		}
	})
}
