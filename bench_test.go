package cogmimo

// The benchmark harness: one benchmark per paper artifact (Figures 6a,
// 6b, 7, 8 and Tables 1-4) regenerating the corresponding report, plus
// the ablation benchmarks DESIGN.md calls out (ēb solver sampling and
// table build, parallel Monte-Carlo scaling, constellation search,
// phase models, clustering, batched STBC decoding).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/beamform"
	"repro/internal/coop"
	"repro/internal/ebtable"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/multihop"
	"repro/internal/network"
	"repro/internal/sensing"
	"repro/internal/sim"
	"repro/internal/stbc"
)

// benchArtifact regenerates one evaluation artifact per iteration.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, experiments.Options{Seed: 1, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig6a(b *testing.B)  { benchArtifact(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)  { benchArtifact(b, "fig6b") }
func BenchmarkFig7(b *testing.B)   { benchArtifact(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchArtifact(b, "fig8") }
func BenchmarkTable1(b *testing.B) { benchArtifact(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchArtifact(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchArtifact(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchArtifact(b, "table4") }

// BenchmarkEbTableSamples ablates the Monte-Carlo ēb solver's sample
// count against the analytic solution, reporting the relative error.
func BenchmarkEbTableSamples(b *testing.B) {
	exact, err := ebtable.Analytic{}.EbBar(0.001, 2, 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, samples := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("samples=%d", samples), func(b *testing.B) {
			b.ReportAllocs()
			var relErr float64
			for i := 0; i < b.N; i++ {
				mc := &ebtable.MonteCarlo{Samples: samples, Seed: int64(i + 1)}
				got, err := mc.EbBar(0.001, 2, 2, 3)
				if err != nil {
					b.Fatal(err)
				}
				relErr = math.Abs(got/exact - 1)
			}
			b.ReportMetric(relErr, "relerr")
		})
	}
}

// BenchmarkEbTableBuild builds the Monte-Carlo ēb table over the
// cogbench paper grid — p {0.01, 0.001} × b {1, 2, 4} × mt, mr 1..4, 96
// cells at 20000 samples — with a fresh seed per iteration, so channel
// draws are included. It reports the BER estimates each cell's solve
// took.
func BenchmarkEbTableBuild(b *testing.B) {
	grid := ebtable.Grid{
		Ps: []float64{0.01, 0.001}, Bs: []int{1, 2, 4}, Mts: []int{1, 2, 3, 4}, Mrs: []int{1, 2, 3, 4},
	}
	b.ReportAllocs()
	var evals, cells int64
	for i := 0; i < b.N; i++ {
		mc := &ebtable.MonteCarlo{Samples: 20000, Seed: int64(i + 1)}
		tab, err := ebtable.Build(mc, grid)
		if err != nil {
			b.Fatal(err)
		}
		evals += mc.Evals()
		cells += int64(tab.Len())
	}
	b.ReportMetric(float64(evals)/float64(cells), "evals/cell")
}

// zbench.rayleigh.norm2 scores the squared Frobenius norm of one 2x2
// Rayleigh channel per trial. Each |h|² of a CN(0, 1) entry is an Exp(1)
// variate, so a trial is four -ln u draws over splitmix64 uniforms of
// its seed: a small, allocation-free trial for timing the chunk runner
// itself rather than the garbage collector.
func init() {
	sim.RegisterKernel("zbench.rayleigh.norm2", sim.Kernel{Build: func(map[string]float64) (sim.TrialFunc, error) {
		return func(seeds []int64, vals []float64) {
			for i, s := range seeds {
				st := uint64(s)
				var norm2 float64
				for e := 0; e < 4; e++ {
					u := float64(mathx.SplitMix64(&st)>>11+1) / (1 << 53)
					norm2 -= math.Log(u)
				}
				vals[i] = norm2
			}
		}, nil
	}})
}

// BenchmarkMonteCarloParallel ablates worker counts on the shared
// Monte-Carlo runner.
func BenchmarkMonteCarloParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			mc := sim.MonteCarlo{Seed: 1, Workers: workers}
			for i := 0; i < b.N; i++ {
				r, err := mc.RunKernelCtx(context.Background(), "zbench.rayleigh.norm2", nil, 100000)
				if err != nil || r.N() != 100000 {
					b.Fatalf("short run: N=%d err=%v", r.N(), err)
				}
			}
		})
	}
}

// BenchmarkRunKernelChunks times a one-chunk range of coop.ber — the
// pilot round of every adaptive run — at one and two workers. The
// chunk runner splits a chunk's trials across idle workers, so the
// second worker should close most of the gap to half the time.
func BenchmarkRunKernelChunks(b *testing.B) {
	params := map[string]float64{"bits": 16}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("chunks=1/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			mc := sim.MonteCarlo{Seed: 1, Workers: workers}
			for i := 0; i < b.N; i++ {
				parts, err := mc.RunKernelChunksCtx(context.Background(), "coop.ber", params, sim.ChunkSize, 0, 1)
				if err != nil || parts[0].N() != sim.ChunkSize {
					b.Fatalf("short run: %v err=%v", parts, err)
				}
			}
		})
	}
}

// BenchmarkOptimalB ablates the exhaustive constellation search against
// a fixed b = 2.
func BenchmarkOptimalB(b *testing.B) {
	model, err := energy.New(energy.Paper(40e3), ebtable.Analytic{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := model.OptimalMIMOB(0.001, 2, 2, 250, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fixed-b2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := model.MIMOTx(0.001, 2, 2, 2, 250); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPhaseModels measures the exact path-length field of the
// interweave beamformer.
func BenchmarkPhaseModels(b *testing.B) {
	pair, err := beamform.NewNullPair(geom.Pt(0, 7.5), geom.Pt(0, -7.5), geom.Pt(0, -300), 30)
	if err != nil {
		b.Fatal(err)
	}
	q := geom.Pt(150, 0)
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if pair.AmplitudeAt(q) <= 0 {
				b.Fatal("zero amplitude")
			}
		}
	})
}

// BenchmarkClustering measures d-clustering over growing deployments.
// Graph construction happens inside each sub-benchmark before its timer
// resets: a ResetTimer on the parent before nested b.Run calls is a
// no-op, because every sub-benchmark runs on its own timer.
func BenchmarkClustering(b *testing.B) {
	buildGraph := func(b *testing.B, n int) *network.Graph {
		b.Helper()
		dep := network.RandomDeployment(mathx.NewRand(1), n, 500, 500, 1, 10)
		g, err := network.NewGraph(dep, 80)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	for _, n := range []int{50, 200} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.Run("greedy", func(b *testing.B) {
				g := buildGraph(b, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cl, err := network.DCluster(g, 30)
					if err != nil {
						b.Fatal(err)
					}
					if err := cl.Validate(); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkSTBCDecodeBatch measures the hop's decode: one tile of BPSK
// blocks through DecodeBatchInto at mr = 2, without the imaginary parts
// a BPSK decision never reads.
func BenchmarkSTBCDecodeBatch(b *testing.B) {
	const n, mr = 256, 2
	rng := mathx.NewRand(1)
	for _, tc := range []struct {
		name string
		c    *stbc.Code
	}{{"Alamouti", stbc.Alamouti()}, {"OSTBC3", stbc.OSTBC3()}, {"OSTBC4", stbc.OSTBC4()}} {
		c := tc.c
		b.Run(tc.name, func(b *testing.B) {
			var syms, x, h, noise, y, est mathx.BatchCF64
			var ws stbc.BatchWorkspace
			syms.Resize(c.BlockSymbols(), n)
			for i := range syms.Data {
				syms.Data[i] = complex(float64(1-2*rng.Intn(2)), 0)
			}
			h.Resize(mr*c.Nt(), n)
			for i := range h.Data {
				h.Data[i] = mathx.ComplexCN(rng, 1)
			}
			noise.Resize(c.BlockLen()*mr, n)
			for i := range noise.Data {
				noise.Data[i] = mathx.ComplexCN(rng, 0.1)
			}
			c.EncodeBatchInto(&syms, &x)
			c.TransmitBatchInto(&x, &h, &noise, &y, mr)
			c.DecodeBatchInto(&ws, &y, &h, mr, &est, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.DecodeBatchInto(&ws, &y, &h, mr, &est, false)
			}
		})
	}
}

// BenchmarkEbBarAnalytic measures the closed-form solver itself: it is
// on the hot path of every sweep.
func BenchmarkEbBarAnalytic(b *testing.B) {
	b.ReportAllocs()
	a := ebtable.Analytic{}
	for i := 0; i < b.N; i++ {
		if _, err := a.EbBar(0.001, 2, 2, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableLookup contrasts a precomputed table lookup with a live
// analytic solve — the reason Algorithm 1/2 preprocess at all.
func BenchmarkTableLookup(b *testing.B) {
	tab, err := ebtable.Build(ebtable.Analytic{}, ebtable.Grid{
		Ps: []float64{0.001}, Bs: []int{1, 2, 4}, Mts: []int{1, 2}, Mrs: []int{1, 2, 3},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.EbBar(0.001, 2, 2, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoopScheme measures symbol-level hop simulation throughput.
func BenchmarkCoopScheme(b *testing.B) {
	for _, pair := range [][2]int{{1, 1}, {2, 2}, {4, 4}} {
		b.Run(fmt.Sprintf("%dx%d", pair[0], pair[1]), func(b *testing.B) {
			cfg := coop.Config{
				Mt: pair[0], Mr: pair[1], B: 1,
				SNRPerBit: 10, Bits: 6000, Seed: 1,
			}
			b.SetBytes(6000 / 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := coop.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoopSchemeScratch is BenchmarkCoopScheme on a warmed
// caller-owned workspace: the steady state of a Monte-Carlo worker. The
// allocs/op column should read ~0. The hop runs its AVX2 kernels where
// mathx.HasAVX2 reports them; GODEBUG=cpu.avx2=off times the pure-Go
// loops, as on a host without AVX2.
func BenchmarkCoopSchemeScratch(b *testing.B) {
	for _, pair := range [][2]int{{1, 1}, {2, 2}, {4, 4}} {
		b.Run(fmt.Sprintf("%dx%d", pair[0], pair[1]), func(b *testing.B) {
			cfg := coop.Config{
				Mt: pair[0], Mr: pair[1], B: 1,
				SNRPerBit: 10, Bits: 6000, Seed: 1,
			}
			ws := coop.NewWorkspace()
			if _, err := coop.RunWith(ws, cfg); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(6000 / 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coop.RunWith(ws, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultihopRoute measures route-level transport.
func BenchmarkMultihopRoute(b *testing.B) {
	b.ReportAllocs()
	cfg := multihop.Config{
		Hops: []multihop.Hop{
			{Mt: 2, Mr: 2, SNRPerBit: 12},
			{Mt: 2, Mr: 3, SNRPerBit: 12},
			{Mt: 3, Mr: 1, SNRPerBit: 12},
		},
		B: 1, Bits: 6000, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := multihop.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveBudget runs one Wilson-stopped deep-BER point and
// reports the realized spend as trials-to-target. The bench artifact
// pins how many trials the stopping rule needs at a ±10% target; a
// stopping-rule regression shows up as a trials-to-target jump and,
// proportionally, as an ns/op regression bench-compare gates on.
func BenchmarkAdaptiveBudget(b *testing.B) {
	b.ReportAllocs()
	params := map[string]float64{"mt": 2, "mr": 2, "snr_db": 5, "bits": 32}
	budget := adaptive.Budget{TargetRelCI: 0.10, MaxTrials: 32 * sim.ChunkSize}
	mc := sim.MonteCarlo{Seed: 1}
	var trials int
	for i := 0; i < b.N; i++ {
		res, err := adaptive.Run(context.Background(), mc, "coop.ber.adaptive", params, budget)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Trace.Stopped {
			b.Fatal("budget exhausted before the CI target was met")
		}
		trials = res.Trace.Trials
	}
	b.ReportMetric(float64(trials), "trials-to-target")
}

// BenchmarkReseed is the primitive rung under every per-trial kernel:
// resetting a generator to a fresh seed. stdlib is math/rand's serial
// 1,841-step Park–Miller walk; vector is the table-driven source that
// reproduces the same stream (internal/mathx/source.go) on its AVX2
// table walk, and skips where mathx.HasAVX2 is false, under
// GODEBUG=cpu.avx2=off too.
func BenchmarkReseed(b *testing.B) {
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		src := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("vector", func(b *testing.B) {
		if !mathx.HasAVX2() {
			b.Skip("no AVX2 in this process")
		}
		b.ReportAllocs()
		rng := mathx.NewReusableRand()
		for i := 0; i < b.N; i++ {
			rng.Reseed(int64(i))
		}
	})
}

// BenchmarkNormFloat64s compares 1024 standard normals drawn by one
// ReusableRand.NormFloat64s fill (the AVX2 step where mathx.HasAVX2
// reports it, the pure-Go loop under GODEBUG=cpu.avx2=off) with
// per-call NormFloat64; both return the same values.
func BenchmarkNormFloat64s(b *testing.B) {
	dst := make([]float64, 1024)
	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		rng := mathx.NewReusableRand()
		rng.Reseed(1)
		for i := 0; i < b.N; i++ {
			rng.NormFloat64s(dst)
		}
	})
	b.Run("percall", func(b *testing.B) {
		b.ReportAllocs()
		rng := mathx.NewReusableRand()
		rng.Reseed(1)
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = rng.Rand.NormFloat64()
			}
		}
	})
}

// BenchmarkErfcInto times one 256-argument block of mathx.ErfcInto, the
// primitive under the Monte-Carlo ēb solver's BER, on the AVX2 lanes;
// it skips where mathx.HasAVX2 is false. The block's
// arguments follow the mix the paper-grid table build feeds it: 31%
// below 0.84375 (polynomial only), 3.5% below 1.25, 33% below 1/0.35
// and 14% below 6 (a rational fit and two Exps), 4% below 28, and the
// rest at or above 28, where erfc is 0.
func BenchmarkErfcInto(b *testing.B) {
	ranges := []struct{ share, lo, hi float64 }{
		{0.31, 0, 0.84375}, {0.035, 0.84375, 1.25}, {0.33, 1.25, 1 / 0.35},
		{0.14, 1 / 0.35, 6}, {0.04, 6, 28}, {0.145, 28, 40},
	}
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 256)
	for i := range src {
		u := rng.Float64()
		for _, r := range ranges {
			if u -= r.share; u < 0 || r == ranges[len(ranges)-1] {
				src[i] = r.lo + (r.hi-r.lo)*rng.Float64()
				break
			}
		}
	}
	dst := make([]float64, len(src))
	b.Run("vector", func(b *testing.B) {
		if !mathx.HasAVX2() {
			b.Skip("no AVX2 in this process")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mathx.ErfcInto(dst, src)
		}
	})
}

// BenchmarkEnergyDetector measures one sensing decision.
func BenchmarkEnergyDetector(b *testing.B) {
	b.ReportAllocs()
	det, err := sensing.NewDetectorForPfa(1000, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRand(1)
	for i := 0; i < b.N; i++ {
		det.Sense(rng, i%2 == 0, 0.1)
	}
}

// BenchmarkMathxLarge exercises mathx at the cell-free dimensions
// (100x400 products, 100-dim Hermitian solves with 40 right-hand
// sides) so the bench-regression gate covers the large regime the
// internal/cellfree combiners run in, not just the 4x4 hop matrices.
func BenchmarkMathxLarge(b *testing.B) {
	b.ReportAllocs()
	rng := mathx.NewRand(1)
	h := mathx.NewCMat(100, 400).RandCN(rng)
	hH := h.ConjTransposeInto(nil)
	gram := mathx.NewCMat(100, 100)
	var ch mathx.Cholesky
	rhs := mathx.NewBatchCF64(100, 40)
	seed := mathx.NewCMat(100, 40).RandCN(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MulInto(hH, gram)
		for d := 0; d < gram.Rows; d++ {
			gram.Set(d, d, gram.At(d, d)+100)
		}
		if err := ch.Factor(gram); err != nil {
			b.Fatal(err)
		}
		// seed is row-major dim-by-rhs, which is exactly the lane-major
		// staging layout of the batch solver.
		copy(rhs.Data, seed.Data)
		ch.SolveBatchInto(rhs)
	}
}
