package testbed

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// Frame is one link-layer packet: a sequence number, a payload, and a
// CRC-32 trailer. The underlay experiment transmits a 474-frame image
// with 1500-byte payloads, exactly as in Section 6.4.
type Frame struct {
	Seq     uint16
	Payload []byte
}

// frameOverhead is the wire overhead: 2 sequence bytes + 4 CRC bytes.
const frameOverhead = 6

// MarshalInto serialises the frame with its CRC-32 (IEEE) trailer into
// dst's backing array when it has the capacity, allocating only on
// growth. The experiment loops marshal hundreds of identically-sized
// frames, so one buffer serves them all.
func (f Frame) MarshalInto(dst []byte) []byte {
	n := 2 + len(f.Payload) + 4
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	buf := dst[:n]
	binary.BigEndian.PutUint16(buf[:2], f.Seq)
	copy(buf[2:], f.Payload)
	crc := crc32.ChecksumIEEE(buf[:2+len(f.Payload)])
	binary.BigEndian.PutUint32(buf[2+len(f.Payload):], crc)
	return buf
}

// FrameIntact reports whether a received buffer passes the length and
// CRC checks; a mismatch is the packet-error event the PER metric
// counts. It allocates nothing, not even an error, so the PER loops can
// call it per frame.
func FrameIntact(buf []byte) bool {
	if len(buf) < frameOverhead {
		return false
	}
	body := buf[:len(buf)-4]
	return crc32.ChecksumIEEE(body) == binary.BigEndian.Uint32(buf[len(buf)-4:])
}

// BitsInto expands bytes to one bit per entry, MSB first, into dst's
// backing array when it has the capacity, allocating only on growth.
func BitsInto(dst, data []byte) []byte {
	n := len(data) * 8
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	out := dst[:n]
	for i, b := range data {
		for j := 0; j < 8; j++ {
			out[i*8+j] = (b >> (7 - j)) & 1
		}
	}
	return out
}

// BytesInto packs bits (len must be a multiple of 8) back into bytes,
// into dst's backing array when it has the capacity, allocating only on
// growth.
func BytesInto(dst, bits []byte) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("testbed: %d bits not a multiple of 8", len(bits))
	}
	n := len(bits) / 8
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	out := dst[:n]
	for i := range out {
		var b byte
		for j := 0; j < 8; j++ {
			b = b<<1 | (bits[i*8+j] & 1)
		}
		out[i] = b
	}
	return out, nil
}

// Image is the test payload standing in for the paper's image file:
// deterministic pseudo-random pixel bytes split into fixed-size frames.
type Image struct {
	Frames []Frame
}

// NewImage builds an image of the given frame count and payload size,
// seeded deterministically (pixel content does not affect PER, but
// determinism keeps runs reproducible).
func NewImage(frames, payloadBytes int, seed int64) (*Image, error) {
	if frames < 1 || frames > 1<<16 {
		return nil, fmt.Errorf("testbed: frame count %d outside [1, 65536]", frames)
	}
	if payloadBytes < 1 {
		return nil, fmt.Errorf("testbed: payload size %d must be positive", payloadBytes)
	}
	rng := rand.New(rand.NewSource(seed))
	img := &Image{Frames: make([]Frame, frames)}
	// One backing block for every payload: rand.Read carries its byte
	// stream across calls, so slicing a shared array draws exactly the
	// bytes per-frame allocations would.
	backing := make([]byte, frames*payloadBytes)
	for i := range img.Frames {
		payload := backing[i*payloadBytes : (i+1)*payloadBytes : (i+1)*payloadBytes]
		rng.Read(payload)
		img.Frames[i] = Frame{Seq: uint16(i), Payload: payload}
	}
	return img, nil
}

// PaperImage is the Section 6.4 payload: 474 frames of 1500 bytes.
func PaperImage(seed int64) *Image {
	img, err := NewImage(474, 1500, seed)
	if err != nil {
		panic(err) // constants are valid by construction
	}
	return img
}
