package sim

import "repro/internal/mathx"

// ChunkSize is the number of trials served by one PRNG stream. Chunks —
// not workers — own random streams, which is what makes a run independent
// of the worker count: chunk i always uses the i-th derived seed and
// always covers the same trial indices, so parallelism changes wall-clock
// time but never the answer. The constant is part of the distributed
// protocol: a coordinator and its workers must agree on it, so shard
// requests carry it and workers reject a mismatch.
const ChunkSize = 2048

// Plan is the chunk decomposition of one Monte-Carlo run: the single
// source of truth for how a (seed, trials) pair maps onto chunk seeds
// and chunk lengths. Both the local worker pool (RunKernelChunksCtx) and
// the distributed shard executor (internal/cluster) derive their work
// from the same Plan, which is what makes a sharded run bit-identical
// to a local one.
type Plan struct {
	// Seed is the master seed all chunk streams derive from.
	Seed int64
	// Trials is the total trial count of the run.
	Trials int
}

// Chunks returns the number of chunks the run decomposes into. It
// rounds up without adding to Trials, so no trial count overflows.
func (p Plan) Chunks() int {
	if p.Trials <= 0 {
		return 0
	}
	return p.Trials/ChunkSize + min(1, p.Trials%ChunkSize)
}

// ChunkTrials returns the number of trials chunk c covers: ChunkSize for
// every chunk but possibly the last.
func (p Plan) ChunkTrials(c int) int {
	if c == p.Chunks()-1 {
		return p.Trials - c*ChunkSize
	}
	return ChunkSize
}

// ChunkSeed returns chunk c's seed, Seeds()[c], without deriving the
// seeds of the chunks before it.
func (p Plan) ChunkSeed(c int) int64 {
	return mathx.DeriveSeed(p.Seed, c)
}

// Seeds derives the per-chunk seeds: a sequential splitmix64 walk from
// the master seed. The derivation is prefix-stable — chunk i's seed
// never depends on the total chunk count — so any contiguous range of
// chunks can be recomputed anywhere from (Seed, Trials) alone.
func (p Plan) Seeds() []int64 {
	return mathx.DeriveSeeds(p.Seed, p.Chunks())
}
