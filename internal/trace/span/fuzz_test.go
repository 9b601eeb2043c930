package span

import "testing"

// FuzzDecodeWire: the trace context rides in every traced wire frame, so
// DecodeWire sees whatever a peer sent. Input shorter than WireSize is
// an error; any longer input decodes, and the context's own wire form
// decodes back to the same context (flag bits it does not know are
// dropped, never misread).
//
// CI runs this bounded (make fuzz).
func FuzzDecodeWire(f *testing.F) {
	var sampled [WireSize]byte
	Context{Trace: NewTraceID(), Parent: NewSpanID(), Sampled: true}.EncodeWire(sampled[:])
	f.Add(sampled[:])
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeWire(data)
		if len(data) < WireSize {
			if err == nil {
				t.Fatalf("%d-byte context accepted", len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("%d-byte context refused: %v", len(data), err)
		}
		var b [WireSize]byte
		c.EncodeWire(b[:])
		if back, err := DecodeWire(b[:]); err != nil || back != c {
			t.Fatalf("%+v re-encodes to %+v (%v)", c, back, err)
		}
	})
}
