package channel

import (
	"testing"

	"repro/internal/mathx"
)

// TestNextBatchMatchesNext drives one BlockFading per coherence length
// over the same seed and compares every block with Next: redraw every
// block (0, 1) and a coherent channel (5) must both consume the rng
// stream exactly as Next and land the same taps.
func TestNextBatchMatchesNext(t *testing.T) {
	const mt, mr, n = 2, 3, 24
	for _, blockLen := range []int{0, 1, 5} {
		var batch mathx.BatchCF64
		batch.Resize(mr*mt, n)
		bf := NewBlockFading(mathx.NewRand(9), mt, mr, blockLen, 0)
		for i := 0; i < n; i++ {
			bf.NextBatch(&batch, i)
		}

		ref := NewBlockFading(mathx.NewRand(9), mt, mr, blockLen, 0)
		for i := 0; i < n; i++ {
			h := ref.Next()
			for l, v := range h.Data {
				if got := batch.At(l, i); got != v {
					t.Fatalf("blockLen=%d block %d lane %d: batch %v, scalar %v", blockLen, i, l, got, v)
				}
			}
		}
	}
}

// TestNextBatchInterleavesWithNext checks the documented mixing
// contract: alternating Next and NextBatch on one fader advances the
// same per-block state as Next alone.
func TestNextBatchInterleavesWithNext(t *testing.T) {
	const mt, mr, n = 2, 2, 10
	var batch mathx.BatchCF64
	batch.Resize(mr*mt, n)
	mixed := NewBlockFading(mathx.NewRand(31), mt, mr, 0, 0)
	ref := NewBlockFading(mathx.NewRand(31), mt, mr, 0, 0)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			mixed.NextBatch(&batch, i)
		} else {
			h := mixed.Next()
			batch.ScatterMat(i, h)
		}
		want := ref.Next()
		for l, v := range want.Data {
			if got := batch.At(l, i); got != v {
				t.Fatalf("block %d lane %d: mixed %v, reference %v", i, l, got, v)
			}
		}
	}
}
