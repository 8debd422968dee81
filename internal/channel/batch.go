package channel

import "repro/internal/mathx"

// NextBatch writes the channel for one more block into column i of dst
// (which must already be shaped mr*mt lanes by >= i+1 columns): the
// matrix Next returns, scattered into SoA lanes (lane j*mt+a for
// receive antenna j, transmit antenna a). It consumes exactly Next's
// rng stream, so mixing Next and NextBatch on one process is valid.
func (b *BlockFading) NextBatch(dst *mathx.BatchCF64, i int) {
	h := b.Next()
	for l, v := range h.Data {
		dst.Set(l, i, v)
	}
}
