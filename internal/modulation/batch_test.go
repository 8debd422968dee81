package modulation

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mathx"
)

// TestModulateBatchMatchesScalar pins the table-driven SoA mapper
// against MapSymbol for every constellation order, over the
// element-major bit layout the cooperative hop uses.
func TestModulateBatchMatchesScalar(t *testing.T) {
	const lanes, n = 3, 25
	for b := 1; b <= 16; b++ {
		s, err := New(b)
		if err != nil {
			t.Fatalf("New(%d): %v", b, err)
		}
		rng := rand.New(rand.NewSource(int64(b)))
		bits := make([]byte, lanes*n*b)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		batch := mathx.NewBatchCF64(lanes, n)
		if err := s.ModulateBatchInto(bits, batch, lanes, n); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < lanes; k++ {
			for i := 0; i < n; i++ {
				base := i*lanes*b + k*b
				want := s.MapSymbol(bits[base : base+b])
				if got := batch.At(k, i); got != want {
					t.Fatalf("b=%d lane %d entry %d: batch %v, scalar %v", b, k, i, got, want)
				}
			}
		}
	}
}

// TestDemodulateBatchMatchesScalar pins hard decisions against
// DecideSymbol for every order — the exact bytes, not just the error
// counts.
func TestDemodulateBatchMatchesScalar(t *testing.T) {
	const lanes, n = 2, 31
	for b := 1; b <= 16; b++ {
		s, err := New(b)
		if err != nil {
			t.Fatalf("New(%d): %v", b, err)
		}
		rng := rand.New(rand.NewSource(int64(100 + b)))
		batch := mathx.NewBatchCF64(lanes, n)
		for i := range batch.Data {
			batch.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got := make([]byte, lanes*n*b)
		if err := s.DemodulateBatchInto(batch, lanes, n, got); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, b)
		for k := 0; k < lanes; k++ {
			for i := 0; i < n; i++ {
				s.DecideSymbol(batch.At(k, i), want)
				base := i*lanes*b + k*b
				for j := 0; j < b; j++ {
					if got[base+j] != want[j] {
						t.Fatalf("b=%d lane %d entry %d bit %d: batch %d, scalar %d",
							b, k, i, j, got[base+j], want[j])
					}
				}
			}
		}
	}
}

// lanePaths lists the decision paths this process runs: the pure-Go
// loop, and the AVX2 kernel where mathx.HasAVX2 reports it.
func lanePaths() []bool {
	if mathx.HasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

// TestDemodulateBatchDivMatchesScalar pins the fused divide-then-decide
// against DecideSymbol(sym/div) for both divisor shapes: the real
// divisor fast path (the decoder's energy scale) and a genuinely
// complex divisor through the full complex division.
func TestDemodulateBatchDivMatchesScalar(t *testing.T) {
	const lanes, n = 2, 27
	divisors := []complex128{complex(2.75, 0), complex(1.5, -0.75)}
	for b := 1; b <= 16; b++ {
		s, err := New(b)
		if err != nil {
			t.Fatalf("New(%d): %v", b, err)
		}
		for di, div := range divisors {
			t.Run(fmt.Sprintf("b=%d/div=%d", b, di), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(200 + b)))
				batch := mathx.NewBatchCF64(lanes, n)
				for i := range batch.Data {
					batch.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				for _, vector := range lanePaths() {
					got := make([]byte, lanes*n*b)
					if err := s.demodulateBatchDivInto(batch, div, lanes, n, got, vector); err != nil {
						t.Fatal(err)
					}
					want := make([]byte, b)
					for k := 0; k < lanes; k++ {
						for i := 0; i < n; i++ {
							s.DecideSymbol(batch.At(k, i)/div, want)
							base := i*lanes*b + k*b
							for j := 0; j < b; j++ {
								if got[base+j] != want[j] {
									t.Fatalf("vector %v lane %d entry %d bit %d: batch %d, scalar %d",
										vector, k, i, j, got[base+j], want[j])
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestModulateDemodulateBatchRoundTrip checks the clean-channel loop:
// bits -> SoA symbols -> decisions must reproduce the bits exactly for
// every order.
func TestModulateDemodulateBatchRoundTrip(t *testing.T) {
	const lanes, n = 4, 16
	for b := 1; b <= 16; b++ {
		s, err := New(b)
		if err != nil {
			t.Fatalf("New(%d): %v", b, err)
		}
		rng := rand.New(rand.NewSource(int64(300 + b)))
		bits := make([]byte, lanes*n*b)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		batch := mathx.NewBatchCF64(lanes, n)
		if err := s.ModulateBatchInto(bits, batch, lanes, n); err != nil {
			t.Fatal(err)
		}
		back := make([]byte, lanes*n*b)
		if err := s.DemodulateBatchInto(batch, lanes, n, back); err != nil {
			t.Fatal(err)
		}
		for i := range bits {
			if bits[i] != back[i] {
				t.Fatalf("b=%d bit %d flipped through a clean round trip", b, i)
			}
		}
	}
}
