package stbc

import (
	"fmt"
	"testing"

	"repro/internal/mathx"
)

// batchTestCodes lists every registered design, including the
// half-rate constructions — the batch kernels must match the scalar
// path on all of them.
func batchTestCodes() []*Code {
	return []*Code{SISO(), Alamouti(), OSTBC3(), OSTBC4(), G3Half(), G4Half()}
}

// lanePaths lists the lane-kernel paths this process runs: the pure-Go
// loops, and the AVX2 kernels where mathx.HasAVX2 reports them.
func lanePaths() []bool {
	if mathx.HasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

// TestNewCodeRejectsImpureRuns: the batched decoder has only the
// pure-run path, so a design with a complex coefficient, or with a
// symbol twice in one row, must fail at construction.
func TestNewCodeRejectsImpureRuns(t *testing.T) {
	for name, gen := range map[string][][]entry{
		"complex coef": {{{Sym: 0, Coef: complex(0, 1)}}},
		"shared row":   {{{Sym: 0, Coef: 1}, {Sym: 0, Coef: 1}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: newCode accepted the design", name)
				}
			}()
			newCode(&Code{name: name, nt: len(gen[0]), k: 1, gen: gen})
		}()
	}
}

func randomSyms(rng interface{ NormFloat64() float64 }, k, n int) *mathx.BatchCF64 {
	b := mathx.NewBatchCF64(k, n)
	for i := range b.Data {
		b.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return b
}

// TestEncodeBatchMatchesScalar pins bit-identity of the SoA encoder
// against per-block EncodeInto for every registered code.
func TestEncodeBatchMatchesScalar(t *testing.T) {
	const n = 33
	for _, code := range batchTestCodes() {
		rng := mathx.NewRand(11)
		syms := randomSyms(rng, code.BlockSymbols(), n)
		var x mathx.BatchCF64
		code.EncodeBatchInto(syms, &x)

		blockSyms := make([]complex128, code.BlockSymbols())
		var want mathx.CMat
		for i := 0; i < n; i++ {
			for k := range blockSyms {
				blockSyms[k] = syms.At(k, i)
			}
			code.EncodeInto(blockSyms, &want)
			for tt := 0; tt < code.BlockLen(); tt++ {
				for a := 0; a < code.Nt(); a++ {
					if got := x.At(tt*code.Nt()+a, i); got != want.At(tt, a) {
						t.Fatalf("%s block %d cell (%d,%d): batch %v, scalar %v",
							code.Name(), i, tt, a, got, want.At(tt, a))
					}
				}
			}
		}
	}
}

// TestEncodeBatchPerAntennaMatchesScalar checks the divergent-copy
// encoder: cell (t,a) must encode antenna a's own symbol view, exactly
// as the scalar cooperative path does when intra-cluster errors
// desynchronise the copies.
func TestEncodeBatchPerAntennaMatchesScalar(t *testing.T) {
	const n = 19
	for _, code := range batchTestCodes() {
		rng := mathx.NewRand(13)
		perAnt := make([]*mathx.BatchCF64, code.Nt())
		for a := range perAnt {
			perAnt[a] = randomSyms(rng, code.BlockSymbols(), n)
		}
		var x mathx.BatchCF64
		code.EncodeBatchPerAntennaInto(perAnt, &x)

		blockSyms := make([]complex128, code.BlockSymbols())
		var want mathx.CMat
		for i := 0; i < n; i++ {
			for a := 0; a < code.Nt(); a++ {
				for k := range blockSyms {
					blockSyms[k] = perAnt[a].At(k, i)
				}
				code.EncodeInto(blockSyms, &want)
				for tt := 0; tt < code.BlockLen(); tt++ {
					if got := x.At(tt*code.Nt()+a, i); got != want.At(tt, a) {
						t.Fatalf("%s block %d cell (%d,%d): batch %v, scalar %v",
							code.Name(), i, tt, a, got, want.At(tt, a))
					}
				}
			}
		}
	}
}

// TestTransmitBatchMatchesScalar pins the batched channel pass — with
// and without the fused noise tape — against the scalar Y = X*H^T plus
// a separate noise add, for every code and 1..4 receive antennas.
func TestTransmitBatchMatchesScalar(t *testing.T) {
	const n = 29
	for _, code := range batchTestCodes() {
		for mr := 1; mr <= 4; mr++ {
			t.Run(fmt.Sprintf("%s/mr=%d", code.Name(), mr), func(t *testing.T) {
				rng := mathx.NewRand(int64(17 + mr))
				syms := randomSyms(rng, code.BlockSymbols(), n)
				var x, h, nz, y mathx.BatchCF64
				code.EncodeBatchInto(syms, &x)
				h.Resize(mr*code.Nt(), n)
				for i := range h.Data {
					h.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				nz.Resize(code.BlockLen()*mr, n)
				for i := range nz.Data {
					nz.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}

				check := func(noise *mathx.BatchCF64, vector bool) {
					t.Helper()
					code.transmitBatchInto(&x, &h, noise, &y, mr, vector)
					var xm, hm, hT, want mathx.CMat
					blockSyms := make([]complex128, code.BlockSymbols())
					for i := 0; i < n; i++ {
						for k := range blockSyms {
							blockSyms[k] = syms.At(k, i)
						}
						code.EncodeInto(blockSyms, &xm)
						h.GatherMat(i, mr, code.Nt(), &hm)
						xm.MulInto(hm.TransposeInto(&hT), &want)
						for tt := 0; tt < code.BlockLen(); tt++ {
							for j := 0; j < mr; j++ {
								w := want.At(tt, j)
								if noise != nil {
									w += noise.At(tt*mr+j, i)
								}
								if got := y.At(tt*mr+j, i); got != w {
									t.Fatalf("vector %v block %d sample (%d,%d) noise=%v: batch %v, scalar %v",
										vector, i, tt, j, noise != nil, got, w)
								}
							}
						}
					}
				}
				for _, vector := range lanePaths() {
					check(nil, vector)
					check(&nz, vector)
				}
			})
		}
	}
}

// TestDecodeBatchMatchesScalar pins the batched matched filter against
// DecodeInto bit for bit, across every code and receive count — the
// identity the whole SoA tier hangs off, since decode is where the
// specialised pure-rotation kernels live.
func TestDecodeBatchMatchesScalar(t *testing.T) {
	const n = 41
	for _, code := range batchTestCodes() {
		for mr := 1; mr <= 4; mr++ {
			t.Run(fmt.Sprintf("%s/mr=%d", code.Name(), mr), func(t *testing.T) {
				rng := mathx.NewRand(int64(23 + mr))
				var y, h, out mathx.BatchCF64
				y.Resize(code.BlockLen()*mr, n)
				for i := range y.Data {
					y.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				h.Resize(mr*code.Nt(), n)
				for i := range h.Data {
					h.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				var ws BatchWorkspace
				var ym, hm mathx.CMat
				est := make([]complex128, code.BlockSymbols())
				for _, vector := range lanePaths() {
					for _, needIm := range []bool{true, false} {
						code.decodeBatchInto(&ws, &y, &h, mr, &out, needIm, vector)
						for i := 0; i < n; i++ {
							y.GatherMat(i, code.BlockLen(), mr, &ym)
							h.GatherMat(i, mr, code.Nt(), &hm)
							est = code.DecodeInto(&ym, &hm, est)
							for k, want := range est {
								if !needIm {
									want = complex(real(want), 0)
								}
								if got := out.At(k, i); got != want {
									t.Fatalf("vector %v needIm %v block %d symbol %d: batch %v, scalar %v",
										vector, needIm, i, k, got, want)
								}
							}
						}
					}
				}
			})
		}
	}
}
