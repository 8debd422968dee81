package testbed

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzUnmarshalFrame checks the receive-side frame check never panics
// and never accepts a buffer whose CRC does not match.
func FuzzUnmarshalFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add(Frame{Seq: 7, Payload: []byte("payload")}.MarshalInto(nil))
	wire := Frame{Seq: 9, Payload: []byte("x")}.MarshalInto(nil)
	wire[0] ^= 0xFF
	f.Add(wire)
	f.Fuzz(func(t *testing.T, data []byte) {
		if !FrameIntact(data) {
			return
		}
		// Anything accepted must re-marshal to the identical bytes.
		fr := Frame{Seq: binary.BigEndian.Uint16(data), Payload: data[2 : len(data)-4]}
		if !bytes.Equal(fr.MarshalInto(nil), data) {
			t.Fatalf("accepted frame does not round-trip: %x", data)
		}
	})
}

// FuzzBitsBytes checks the bit packing round-trips for arbitrary input.
func FuzzBitsBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xFF, 0xA5})
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := BytesInto(nil, BitsInto(nil, data))
		if err != nil {
			t.Fatalf("Bits always yields a multiple of 8: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip mangled %x -> %x", data, back)
		}
	})
}
