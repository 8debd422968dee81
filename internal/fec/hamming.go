// Package fec provides the channel-coding block Section 2.3 deliberately
// omits and flags as the natural extension ("the methodology used here
// can be extended to ... include the signal processing blocks"): a
// Hamming(7,4) code with single-error correction per block, pluggable
// under the testbed's frame path.
package fec

import "fmt"

// Hamming74 encodes 4 data bits into 7 coded bits and corrects any
// single bit error per block. The systematic generator places data in
// positions 3, 5, 6, 7 (1-indexed) and even parity in 1, 2, 4.
type Hamming74 struct{}

// BlockData and BlockCoded are the block sizes in bits.
const (
	BlockData  = 4
	BlockCoded = 7
)

// Encode maps data bits (len a multiple of 4) to coded bits.
func (Hamming74) Encode(data []byte) ([]byte, error) {
	if len(data)%BlockData != 0 {
		return nil, fmt.Errorf("fec: %d data bits not a multiple of %d", len(data), BlockData)
	}
	out := make([]byte, 0, len(data)/BlockData*BlockCoded)
	for i := 0; i < len(data); i += BlockData {
		d := data[i : i+BlockData]
		// c[1..7], 1-indexed positions; d1..d4 at 3, 5, 6, 7.
		var c [8]byte
		c[3], c[5], c[6], c[7] = d[0]&1, d[1]&1, d[2]&1, d[3]&1
		c[1] = c[3] ^ c[5] ^ c[7]
		c[2] = c[3] ^ c[6] ^ c[7]
		c[4] = c[5] ^ c[6] ^ c[7]
		out = append(out, c[1], c[2], c[3], c[4], c[5], c[6], c[7])
	}
	return out, nil
}

// Decode maps coded bits (len a multiple of 7) back to data bits,
// correcting up to one error per block. It returns the data and the
// number of blocks in which it corrected an error.
func (Hamming74) Decode(coded []byte) ([]byte, int, error) {
	if len(coded)%BlockCoded != 0 {
		return nil, 0, fmt.Errorf("fec: %d coded bits not a multiple of %d", len(coded), BlockCoded)
	}
	out := make([]byte, 0, len(coded)/BlockCoded*BlockData)
	corrected := 0
	var c [8]byte
	for i := 0; i < len(coded); i += BlockCoded {
		for j := 0; j < BlockCoded; j++ {
			c[j+1] = coded[i+j] & 1
		}
		// Syndrome bits address the error position directly.
		s1 := c[1] ^ c[3] ^ c[5] ^ c[7]
		s2 := c[2] ^ c[3] ^ c[6] ^ c[7]
		s4 := c[4] ^ c[5] ^ c[6] ^ c[7]
		pos := int(s1) | int(s2)<<1 | int(s4)<<2
		if pos != 0 {
			c[pos] ^= 1
			corrected++
		}
		out = append(out, c[3], c[5], c[6], c[7])
	}
	return out, corrected, nil
}
