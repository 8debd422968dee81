package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds exercise every branch of the seed reduction: zero (replaced
// by 89482311), the replacement value itself, negatives, multiples of
// 2³¹−1 (which reduce to zero) and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 89482311, -89482311,
	int32max, -int32max, int32max - 1, int32max + 1,
	2 * int32max, -2 * int32max,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
}

// checkSourceSeed compares source64 with rand.NewSource on one seed:
// raw Uint64 and Int63 draws, then the derived rand.Rand variates.
func checkSourceSeed(t testing.TB, seed int64, draws int) {
	t.Helper()
	var got source64
	got.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < draws; i++ {
		if i%2 == 0 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %d, stdlib %d", seed, i, g, w)
			}
		} else if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 draw %d = %d, stdlib %d", seed, i, g, w)
		}
	}

	a, b := NewRand(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < 64; i++ {
		if g, w := a.NormFloat64(), b.NormFloat64(); g != w {
			t.Fatalf("seed %d: NormFloat64 %d = %v, stdlib %v", seed, i, g, w)
		}
		if g, w := a.ExpFloat64(), b.ExpFloat64(); g != w {
			t.Fatalf("seed %d: ExpFloat64 %d = %v, stdlib %v", seed, i, g, w)
		}
		if g, w := a.Float64(), b.Float64(); g != w {
			t.Fatalf("seed %d: Float64 %d = %v, stdlib %v", seed, i, g, w)
		}
		if g, w := a.Intn(1000+i), b.Intn(1000+i); g != w {
			t.Fatalf("seed %d: Intn %d = %d, stdlib %d", seed, i, g, w)
		}
	}
	pa, pb := a.Perm(50), b.Perm(50)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("seed %d: Perm differs at %d: %v vs %v", seed, i, pa, pb)
		}
	}
}

func TestSourceMatchesStdlib(t *testing.T) {
	for _, s := range edgeSeeds {
		checkSourceSeed(t, s, 2000)
	}
	// Random seeds over the whole int64 range, plus small ones where
	// the reduction is the identity.
	meta := rand.New(rand.NewSource(20260817))
	for i := 0; i < 5000; i++ {
		s := int64(meta.Uint64())
		if i%4 == 0 {
			s = meta.Int63n(1 << 32)
		}
		checkSourceSeed(t, s, 2000)
	}
}

func FuzzSourceMatchesStdlib(f *testing.F) {
	for _, s := range edgeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSourceSeed(t, seed, 2000)
	})
}

// TestReseedUsedGenerator checks that reseeding a generator that has
// already been drawn from yields exactly the fresh stream, and that a
// fork taken mid-stream continues where its origin stands.
func TestReseedUsedGenerator(t *testing.T) {
	r := NewReusableRand()
	for _, seed := range []int64{7, 7, -3, 0, 1 << 40} {
		r.Reseed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < 1500; i++ {
			if g, w := r.Rand.Int63(), fresh.Int63(); g != w {
				t.Fatalf("seed %d: reseeded draw %d = %d, fresh %d", seed, i, g, w)
			}
		}
	}

	fork := NewReusableRand()
	fork.CopyFrom(r)
	for i := 0; i < 1500; i++ {
		if g, w := fork.Rand.Uint64(), r.Rand.Uint64(); g != w {
			t.Fatalf("fork draw %d = %d, origin %d", i, g, w)
		}
	}
}

// TestNewReusableRandStartsAtSeedZero keeps the unseeded generator on
// the stream rand.NewSource(0) starts on.
func TestNewReusableRandStartsAtSeedZero(t *testing.T) {
	r, w := NewReusableRand(), rand.New(rand.NewSource(0))
	for i := 0; i < 100; i++ {
		if g, want := r.Rand.Int63(), w.Int63(); g != want {
			t.Fatalf("draw %d = %d, want %d", i, g, want)
		}
	}
}
