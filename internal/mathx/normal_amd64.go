package mathx

import "math"

// normLanes holds normVector's lane constants. A four-step group's state
// words sit in memory in reverse step order: step 1 at feed−1, step 4
// at feed−4. perm picks the low dword of each sum in step order, split
// separates four gathered knWn entries into their kn and wn halves, and
// store[p] masks the words of steps 1 through p+1, the ones written back
// when step p+1 is the first slow one.
var normLanes = struct {
	perm, split [8]uint32
	store       [4][4]int64
}{
	perm:  [8]uint32{6, 4, 2, 0},
	split: [8]uint32{0, 2, 4, 6, 1, 3, 5, 7},
	store: [4][4]int64{
		{0, 0, 0, -1},
		{0, 0, -1, -1},
		{0, -1, -1, -1},
		{-1, -1, -1, -1},
	},
}

// knWn packs kn[i] and the bits of wn[i] into one word per strip, so
// one gather fetches both.
var knWn = func() (t [128]uint64) {
	for i := range t {
		t[i] = uint64(kn[i]) | uint64(math.Float32bits(wn[i]))<<32
	}
	return t
}()

// bitLanes maps the sign mask of a four-step group's words, each shifted
// so bit 32 is its sign, to the four output bytes in step order: mask
// bit l is the word at feed−4+l, step 4−l.
var bitLanes = func() (t [16]uint32) {
	for m := range t {
		for l := 0; l < 4; l++ {
			t[m] |= uint32(m>>l&1) << (8 * (3 - l))
		}
	}
	return t
}()

// normVector draws len(dst) normals on four-step groups starting at the
// cursors tap and feed, and returns how many it stored. When a draw
// misses the ziggurat's rectangle it stops: it returns that draw's
// index k, and the state is advanced through the draw's step, k+1 steps
// in all. len(dst) must be a positive multiple of four and at most
// min(tap, feed).
//
// Per group it adds the feed and tap words (VPADDQ), takes j from each
// sum, gathers knWn[j&0x7F] and runs the rectangle test |j| < kn[i] as
// an unsigned compare. It stores the four float64(j)·float64(wn[i]);
// with no slow lane it also stores the sums, otherwise only the sums
// through the first slow lane (VPMASKMOVQ), and returns. Implemented in
// normal_amd64.s.
//
//go:noescape
func normVector(vec *[rngLen]int64, tap, feed int, dst []float64) int

// bitsVector draws len(dst) bits on four-step groups starting at the
// cursors tap and feed, under normVector's conditions on len(dst): per
// group one VPADDQ, a store of the sums and one bitLanes lookup on their
// bit-32 mask. Implemented in normal_amd64.s.
//
//go:noescape
func bitsVector(vec *[rngLen]int64, tap, feed int, dst []byte)
