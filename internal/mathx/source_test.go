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
		checkSeedPaths(t, new(source64), seed)
		// The seed also picks the fill lengths, so the corpus keeps one
		// value per entry.
		n := int(uint64(seed) % 1500)
		checkFills(t, seed, []int{n, 1, n / 3, 2*n + 1})
	})
}

// checkSeedPaths seeds s with seed on the vector path (where the host
// has one) and on the pure-Go loop, and fails unless both leave the
// same state. s arrives holding another seed's state, so a path that
// leaves a word unwritten shows up as a mismatch.
func checkSeedPaths(t testing.TB, s *source64, seed int64) {
	t.Helper()
	s.seed(seed, hasAVX2())
	var want source64
	want.seed(seed^0x5a5a, false)
	want.seed(seed, false)
	if *s != want {
		for i := range s.vec {
			if s.vec[i] != want.vec[i] {
				t.Fatalf("seed %d: vector state word %d = %d, pure Go %d", seed, i, s.vec[i], want.vec[i])
			}
		}
		t.Fatalf("seed %d: vector tap/feed %d/%d, pure Go %d/%d", seed, s.tap, s.feed, want.tap, want.feed)
	}
}

// TestVectorSeedMatchesPureGo pins the vector seed to the pure-Go loop
// on the edge seeds and 5,000 random ones, reusing one source so each
// seed overwrites the previous seed's state.
func TestVectorSeedMatchesPureGo(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no vector seed on this host")
	}
	var s source64
	for _, seed := range edgeSeeds {
		checkSeedPaths(t, &s, seed)
	}
	meta := rand.New(rand.NewSource(20261018))
	for i := 0; i < 5000; i++ {
		checkSeedPaths(t, &s, int64(meta.Uint64()))
	}
}

// countingSource counts the source words a stdlib generator consumes,
// which tells the ziggurat's paths apart: the rectangle takes one word
// per variate, the tail returns |v| >= rn, and a rejected wedge takes
// at least three words and then returns a non-tail value.
type countingSource struct {
	rand.Source64
	words int
}

func (c *countingSource) Int63() int64   { c.words++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.words++; return c.Source64.Uint64() }

// fillPaths counts the ziggurat paths the reference draws took.
type fillPaths struct{ tail, wedgeReject int }

// fillVectors lists the fill paths this host can run: the pure-Go
// loop, and the vector step where the host has AVX2.
func fillVectors() []bool {
	if hasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

// checkFills runs NormFloat64s and Bits at each length against a stdlib
// generator on the same seed, interleaved with single draws of every
// kind, once on each fill path, and returns the ziggurat paths the
// normals took.
func checkFills(t testing.TB, seed int64, lengths []int) fillPaths {
	t.Helper()
	var paths fillPaths
	for _, vector := range fillVectors() {
		paths = checkFillPath(t, seed, lengths, vector)
	}
	return paths
}

// checkFillPath is checkFills on one fill path.
func checkFillPath(t testing.TB, seed int64, lengths []int, vector bool) fillPaths {
	t.Helper()
	r := NewReusableRand()
	r.Reseed(seed)
	src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	ref := rand.New(src)
	var paths fillPaths
	for _, n := range lengths {
		norms := make([]float64, n)
		r.normFloat64s(norms, vector)
		for i, g := range norms {
			before := src.words
			w := ref.NormFloat64()
			switch {
			case math.Abs(w) >= rn:
				paths.tail++
			case src.words-before >= 3:
				paths.wedgeReject++
			}
			if g != w {
				t.Fatalf("seed %d, vector %v: NormFloat64s(%d)[%d] = %v, stdlib %v", seed, vector, n, i, g, w)
			}
		}
		if g, w := r.Rand.Int63(), ref.Int63(); g != w {
			t.Fatalf("seed %d, vector %v: Int63 after NormFloat64s(%d) = %d, stdlib %d", seed, vector, n, g, w)
		}
		bits := make([]byte, n)
		r.bits(bits, vector)
		for i, g := range bits {
			if w := byte(ref.Intn(2)); g != w {
				t.Fatalf("seed %d, vector %v: Bits(%d)[%d] = %d, stdlib %d", seed, vector, n, i, g, w)
			}
		}
		if g, w := r.Rand.NormFloat64(), ref.NormFloat64(); g != w {
			t.Fatalf("seed %d, vector %v: NormFloat64 after Bits(%d) = %v, stdlib %v", seed, vector, n, g, w)
		}
		if g, w := r.Rand.Float64(), ref.Float64(); g != w {
			t.Fatalf("seed %d, vector %v: Float64 after Bits(%d) = %v, stdlib %v", seed, vector, n, g, w)
		}
		if g, w := r.Rand.Intn(1000+n), ref.Intn(1000+n); g != w {
			t.Fatalf("seed %d, vector %v: Intn after Bits(%d) = %d, stdlib %d", seed, vector, n, g, w)
		}
	}
	return paths
}

// TestFillsMatchStdlib pins the slice fills to stdlib single draws at
// lengths 0, 1, odd, past one state cycle (607) and past 5,000, and
// requires that the normals crossed both slow paths: the base-strip
// tail and a rejected wedge.
func TestFillsMatchStdlib(t *testing.T) {
	lengths := []int{0, 1, 7, 611, 5003, 2, 1023}
	var paths fillPaths
	for _, seed := range append([]int64{1, 42, 20261018}, edgeSeeds...) {
		p := checkFills(t, seed, lengths)
		paths.tail += p.tail
		paths.wedgeReject += p.wedgeReject
	}
	if paths.tail == 0 || paths.wedgeReject == 0 {
		t.Fatalf("slow paths not exercised: %d tail, %d rejected wedge draws", paths.tail, paths.wedgeReject)
	}
	t.Logf("%d tail and %d rejected wedge draws", paths.tail, paths.wedgeReject)
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
