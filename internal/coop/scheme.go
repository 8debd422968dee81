// Package coop simulates the cooperative communication schemes of
// Section 2.2 at symbol level: one hop of the data relay path between a
// transmit cluster A (mt nodes, head x) and a receive cluster B (mr
// nodes, head y).
//
//	Step 1  intra/local broadcast at A   (AWGN links; may corrupt copies)
//	Step 2  long-haul mt-by-mr STBC transmission over flat Rayleigh fading
//	Step 3  intra/local sample forwarding at B; head decodes jointly
//
// Unlike the energy-level analyses (internal/overlay, internal/underlay)
// this package transports actual bits, so it exposes the effects the
// closed forms abstract away: intra-cluster bit errors desynchronise the
// cooperative antennas' copies, the rate-3/4 codes pay their rate
// penalty, and sample forwarding adds noise before joint decoding.
package coop

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/channel"
	"repro/internal/mathx"
	"repro/internal/modulation"
	"repro/internal/stbc"
)

// Config parameterises one cooperative hop simulation.
type Config struct {
	// Mt and Mr are the cooperating node counts (1..4 each).
	Mt, Mr int
	// B is the constellation size in bits per symbol.
	B int
	// SNRPerBit is the long-haul mean per-bit receive SNR scale: the
	// paper's gamma_b equals ||H||_F^2 * SNRPerBit / mt per codeword.
	SNRPerBit float64
	// LocalSNRPerBit is the intra-cluster per-bit SNR for Step 1's
	// broadcast; +Inf (or 0, meaning "ideal") disables local errors.
	LocalSNRPerBit float64
	// ForwardSNR is the Step 3 sample-forwarding SNR (signal-to-added-
	// noise per sample); 0 means ideal forwarding.
	ForwardSNR float64
	// CoherenceBlocks redraws the channel every so many STBC blocks;
	// <= 0 redraws per block.
	CoherenceBlocks int
	// Bits is the number of information bits to push through the hop.
	Bits int
	// Seed drives all randomness.
	Seed int64
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.Mt < 1 || c.Mt > 4 || c.Mr < 1 || c.Mr > 4:
		return fmt.Errorf("coop: node counts %dx%d outside [1, 4]", c.Mt, c.Mr)
	case c.B < 1 || c.B > 16:
		return fmt.Errorf("coop: constellation size %d outside [1, 16]", c.B)
	case c.SNRPerBit <= 0:
		return fmt.Errorf("coop: SNR per bit %g must be positive", c.SNRPerBit)
	case c.LocalSNRPerBit < 0:
		return fmt.Errorf("coop: local SNR %g must be non-negative", c.LocalSNRPerBit)
	case c.ForwardSNR < 0:
		return fmt.Errorf("coop: forward SNR %g must be non-negative", c.ForwardSNR)
	case c.Bits < 1:
		return fmt.Errorf("coop: bit count %d must be positive", c.Bits)
	}
	return nil
}

// SchemeName returns the paper's name for the hop configuration.
func (c Config) SchemeName() string {
	return string(linkKind(c.Mt, c.Mr))
}

func linkKind(mt, mr int) string {
	switch {
	case mt == 1 && mr == 1:
		return "SISO"
	case mt > 1 && mr == 1:
		return "MISO"
	case mt == 1 && mr > 1:
		return "SIMO"
	default:
		return "MIMO"
	}
}

// Result reports one simulated hop.
type Result struct {
	// BER is the end-to-end bit error rate measured at the head of B.
	BER float64
	// LocalBER is the bit error rate of Step 1's broadcast copies
	// (zero when mt = 1 or local links are ideal).
	LocalBER float64
	// Bits is the number of information bits actually transported
	// (rounded down to whole STBC blocks).
	Bits int
	// Scheme is the link classification.
	Scheme string
}

// Workspace holds the reusable scratch state for one goroutine's hop
// simulations: the generator, modulation schemes, fading process and
// every buffer the per-block loop touches. Reusing a Workspace across
// runs makes the kernel allocation-free in steady state while consuming
// exactly the rng stream a fresh run would, so results stay bit-identical.
// A Workspace is not safe for concurrent use; keep one per worker.
type Workspace struct {
	rng *mathx.ReusableRand
	// bits is RunWith's fork of the freshly seeded rng, from which it
	// draws the source bits while the hop draws from rng itself.
	bits   *mathx.ReusableRand
	fading *channel.BlockFading
	mods   [17]*modulation.Scheme // index = bits per symbol

	src     []byte
	out     []byte
	decided []byte
	copies  [][]byte
	locSyms []complex128
	syms    []complex128
	est     []complex128
	perAnt  []*mathx.CMat
	x       *mathx.CMat
	hT      *mathx.CMat
	y       *mathx.CMat

	// batch holds the SoA tile buffers of the batched engine (batch.go),
	// the default transport path.
	batch batchScratch
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace {
	return &Workspace{
		rng:    mathx.NewReusableRand(),
		bits:   mathx.NewReusableRand(),
		fading: channel.NewBlockFading(nil, 1, 1, 0, 0),
	}
}

var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// GetWorkspace takes a workspace from the shared pool.
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// PutWorkspace returns a workspace to the shared pool. The caller must
// not retain any buffer handed out by the workspace's run.
func PutWorkspace(ws *Workspace) { wsPool.Put(ws) }

// scheme returns the cached modulation scheme for b bits per symbol.
func (ws *Workspace) scheme(b int) (*modulation.Scheme, error) {
	if b >= 1 && b < len(ws.mods) && ws.mods[b] != nil {
		return ws.mods[b], nil
	}
	mod, err := modulation.New(b)
	if err != nil {
		return nil, err
	}
	if b >= 1 && b < len(ws.mods) {
		ws.mods[b] = mod
	}
	return mod, nil
}

// growBytes returns buf resized to n, reusing its backing array when
// possible.
func growBytes(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// Run simulates the hop on random source bits and returns measured
// error rates, using a pooled workspace.
func Run(cfg Config) (Result, error) {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	return RunWith(ws, cfg)
}

// RunWith is Run on a caller-owned workspace, for hot loops that keep
// one workspace per goroutine instead of hitting the pool per trial.
//
// The source bits and the hop both draw from the start of cfg.Seed's
// stream. RunWith seeds once and draws the bits from a copy of the
// seeded state, leaving the original for the hop: the same streams two
// Reseed calls would give, for the price of one.
func RunWith(ws *Workspace, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	code, err := stbc.ForTransmitters(cfg.Mt)
	if err != nil {
		return Result{}, err
	}
	bitsPerBlock := code.BlockSymbols() * cfg.B
	blocks := cfg.Bits / bitsPerBlock
	if blocks == 0 {
		blocks = 1
	}
	ws.rng.Reseed(cfg.Seed)
	ws.bits.CopyFrom(ws.rng)
	rng := ws.bits.Rand
	ws.src = growBytes(ws.src, blocks*bitsPerBlock)
	for i := range ws.src {
		ws.src[i] = byte(rng.Intn(2))
	}
	ws.out = growBytes(ws.out, len(ws.src))
	return transport(ws, cfg, ws.src, ws.out)
}

// Transport pushes the given source bits through one cooperative hop and
// returns the bits decoded at the head of the receive cluster alongside
// the measured rates. len(src) must be a positive multiple of the STBC
// block payload (BlockSymbols * b); multi-hop relays chain Transport
// calls, feeding each hop's output to the next.
func Transport(cfg Config, src []byte) ([]byte, Result, error) {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	dst := make([]byte, len(src))
	res, err := TransportInto(ws, cfg, src, dst)
	if err != nil {
		return nil, res, err
	}
	return dst, res, nil
}

// TransportInto is Transport on a caller-owned workspace, writing the
// decoded bits into dst (which must have length len(src)). Relay chains
// ping-pong two buffers through it so the whole route stays
// allocation-free. Every call reseeds the workspace with cfg.Seed.
func TransportInto(ws *Workspace, cfg Config, src, dst []byte) (Result, error) {
	ws.rng.Reseed(cfg.Seed)
	return transport(ws, cfg, src, dst)
}

// RunScalarWith is RunWith on the per-block scalar engine — the oracle
// the batched default path is tested against. It consumes the same rng
// stream and performs the same floating-point operations per block, so
// its results are bit-identical to RunWith's. It keeps the plain
// two-seed shape (seed, draw the bits, reseed for the hop) that
// RunWith's single seed and fork must reproduce.
func RunScalarWith(ws *Workspace, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	code, err := stbc.ForTransmitters(cfg.Mt)
	if err != nil {
		return Result{}, err
	}
	bitsPerBlock := code.BlockSymbols() * cfg.B
	blocks := cfg.Bits / bitsPerBlock
	if blocks == 0 {
		blocks = 1
	}
	ws.rng.Reseed(cfg.Seed)
	rng := ws.rng.Rand
	ws.src = growBytes(ws.src, blocks*bitsPerBlock)
	for i := range ws.src {
		ws.src[i] = byte(rng.Intn(2))
	}
	ws.out = growBytes(ws.out, len(ws.src))
	return transportScalar(ws, cfg, ws.src, ws.out)
}

// TransportScalarInto is TransportInto on the per-block scalar engine,
// kept as the bit-identity oracle for the batched default path.
func TransportScalarInto(ws *Workspace, cfg Config, src, dst []byte) (Result, error) {
	return transportScalar(ws, cfg, src, dst)
}

func transportScalar(ws *Workspace, cfg Config, src, dst []byte) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	ws.rng.Reseed(cfg.Seed)
	rng := ws.rng.Rand
	mod, err := ws.scheme(cfg.B)
	if err != nil {
		return Result{}, err
	}
	code, err := stbc.ForTransmitters(cfg.Mt)
	if err != nil {
		return Result{}, err
	}
	bitsPerBlock := code.BlockSymbols() * cfg.B
	if len(src) == 0 || len(src)%bitsPerBlock != 0 {
		return Result{}, fmt.Errorf("coop: %d source bits not a positive multiple of the %d-bit block",
			len(src), bitsPerBlock)
	}
	if len(dst) != len(src) {
		return Result{}, fmt.Errorf("coop: dst holds %d bits, need %d", len(dst), len(src))
	}
	blocks := len(src) / bitsPerBlock
	res := Result{Scheme: cfg.SchemeName(), Bits: len(src)}

	// Per-antenna per-slot symbol energy so that the post-combining
	// per-bit SNR is ||H||^2 * SNRPerBit / mt, including the code's rate
	// penalty (see the derivation in scheme_test.go).
	ea := cfg.SNRPerBit * float64(cfg.B) * code.Rate() / float64(cfg.Mt)
	scale := complex(math.Sqrt(ea), 0)

	ws.fading.Reset(rng, cfg.Mt, cfg.Mr, cfg.CoherenceBlocks, 0)

	if cap(ws.copies) < cfg.Mt {
		ws.copies = append(ws.copies[:cap(ws.copies)], make([][]byte, cfg.Mt-cap(ws.copies))...)
	}
	ws.copies = ws.copies[:cfg.Mt]
	for i := range ws.copies {
		ws.copies[i] = growBytes(ws.copies[i], bitsPerBlock)
	}
	if cap(ws.perAnt) < cfg.Mt {
		ws.perAnt = append(ws.perAnt[:cap(ws.perAnt)], make([]*mathx.CMat, cfg.Mt-cap(ws.perAnt))...)
	}
	ws.perAnt = ws.perAnt[:cfg.Mt]
	ws.decided = growBytes(ws.decided, cfg.B)

	var bitErrs, localErrs, localBits int
	for blk := 0; blk < blocks; blk++ {
		blockSrc := src[blk*bitsPerBlock : (blk+1)*bitsPerBlock]

		// Step 1: head x broadcasts; each other member receives its own
		// noisy copy (the head's copy is exact).
		copy(ws.copies[0], blockSrc)
		for m := 1; m < cfg.Mt; m++ {
			broadcastCopy(ws, mod, blockSrc, ws.copies[m], cfg.LocalSNRPerBit)
			for i := range blockSrc {
				localBits++
				if ws.copies[m][i] != blockSrc[i] {
					localErrs++
				}
			}
		}

		// Step 2: each antenna encodes its own copy; disagreement between
		// copies corrupts the space-time structure, exactly as it would
		// over the air.
		h := ws.fading.Next()
		y := transmitPerAntenna(ws, code, mod, scale, h)
		channel.AWGN(rng, y.Data, 1)

		// Step 3: members forward their samples to head y; forwarding
		// adds noise per sample when ForwardSNR is finite.
		if cfg.Mr > 1 && cfg.ForwardSNR > 0 {
			forwardNoise(rng, y, ea, h, cfg.ForwardSNR)
		}

		ws.est = code.DecodeInto(y, h, ws.est)
		for k, sym := range ws.est {
			mod.DecideSymbol(sym/scale, ws.decided)
			for j := 0; j < cfg.B; j++ {
				if ws.decided[j] != blockSrc[k*cfg.B+j] {
					bitErrs++
				}
			}
			copy(dst[blk*bitsPerBlock+k*cfg.B:], ws.decided)
		}
	}
	res.BER = float64(bitErrs) / float64(res.Bits)
	if localBits > 0 {
		res.LocalBER = float64(localErrs) / float64(localBits)
	}
	return res, nil
}

// broadcastCopy sends bits over one AWGN local link and writes the
// receiver's hard decisions to dst. localSNR = 0 means ideal.
func broadcastCopy(ws *Workspace, mod *modulation.Scheme, src, dst []byte, localSNR float64) {
	if localSNR == 0 || math.IsInf(localSNR, 1) {
		copy(dst, src)
		return
	}
	syms, err := mod.ModulateInto(src, ws.locSyms)
	if err != nil {
		// Block sizes are whole multiples of b by construction.
		panic(err)
	}
	ws.locSyms = syms
	// Unit-energy symbols; noise variance sets the per-bit SNR:
	// Es/N0 = b * localSNR.
	n0 := 1 / (float64(mod.BitsPerSymbol) * localSNR)
	channel.AWGN(ws.rng.Rand, syms, n0)
	mod.DemodulateInto(syms, dst)
}

// transmitPerAntenna builds the received block when each antenna encodes
// its own (possibly divergent) bit copy. With identical copies this
// reduces exactly to code.Transmit(code.Encode(...)). The returned matrix
// is workspace scratch, valid until the next call.
func transmitPerAntenna(ws *Workspace, code *stbc.Code, mod *modulation.Scheme, scale complex128, h *mathx.CMat) *mathx.CMat {
	mt := code.Nt()
	// Encode each antenna's view of the block.
	for a := 0; a < mt; a++ {
		syms, err := mod.ModulateInto(ws.copies[a], ws.syms)
		if err != nil {
			panic(err)
		}
		ws.syms = syms
		for i := range syms {
			syms[i] *= scale
		}
		ws.perAnt[a] = code.EncodeInto(syms, ws.perAnt[a])
	}
	// Antenna a transmits column a of its own encoding.
	x := mathx.EnsureShape(ws.x, ws.perAnt[0].Rows, mt)
	ws.x = x
	for t := 0; t < x.Rows; t++ {
		for a := 0; a < mt; a++ {
			x.Set(t, a, ws.perAnt[a].At(t, a))
		}
	}
	// y[t][j] = sum_a x[t][a] h[j][a].
	ws.hT = h.TransposeInto(ws.hT)
	ws.y = x.MulInto(ws.hT, ws.y)
	return ws.y
}

// forwardNoise models Step 3: every sample travelling from a non-head
// receiver to the head picks up noise proportional to the mean sample
// power. Receiver 0 is the head and forwards nothing.
func forwardNoise(rng *rand.Rand, y *mathx.CMat, ea float64, h *mathx.CMat, fwdSNR float64) {
	meanPower := ea * h.FrobeniusNorm2() / float64(h.Rows)
	variance := meanPower / fwdSNR
	for t := 0; t < y.Rows; t++ {
		for j := 1; j < y.Cols; j++ {
			y.Set(t, j, y.At(t, j)+mathx.ComplexCN(rng, variance))
		}
	}
}

// PredictBER returns the closed-form BER this hop should approach when
// the local links are ideal: the paper's eq. (5)/(6) average with the
// code's rate folded into the energy (rate-1 codes match exactly).
func PredictBER(cfg Config) float64 {
	code, err := stbc.ForTransmitters(cfg.Mt)
	if err != nil {
		return math.NaN()
	}
	pre, k := berShape(cfg.B)
	return pre * modulation.BERRayleighMRC(cfg.Mt*cfg.Mr, k/2*cfg.SNRPerBit*code.Rate()/float64(cfg.Mt))
}

func berShape(b int) (pre, k float64) {
	if b <= 1 {
		return 1, 2
	}
	m := math.Pow(2, float64(b))
	return 4 / float64(b) * (1 - math.Pow(2, -float64(b)/2)), 3 * float64(b) / (m - 1)
}
