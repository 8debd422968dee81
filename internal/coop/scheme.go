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
	// SNRPerBit is the long-haul mean per-bit receive SNR scale, positive
	// and finite: the paper's gamma_b equals ||H||_F^2 * SNRPerBit / mt
	// per codeword.
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
	case !(c.SNRPerBit > 0) || math.IsInf(c.SNRPerBit, 1):
		return fmt.Errorf("coop: SNR per bit %g must be positive and finite", c.SNRPerBit)
	case !(c.LocalSNRPerBit >= 0):
		return fmt.Errorf("coop: local SNR %g must be non-negative", c.LocalSNRPerBit)
	case !(c.ForwardSNR >= 0):
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
// every buffer the batched engine touches. Reusing a Workspace across
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

	// src and out are RunWith's source and decoded bits.
	src []byte
	out []byte

	// batch holds the SoA tile buffers of the batched engine (batch.go).
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
	ws.rng.Reseed(cfg.Seed)
	ws.bits.CopyFrom(ws.rng)
	ws.src = growBytes(ws.src, SourceBits(cfg))
	ws.bits.Bits(ws.src)
	ws.out = growBytes(ws.out, len(ws.src))
	return transport(ws, cfg, ws.src, ws.out)
}

// SourceBits returns the number of bits Run and RunWith transport for
// cfg, which Result.Bits reports: cfg.Bits rounded down to whole STBC
// blocks of BlockSymbols·B bits, and at least one block. It returns 0
// when no code serves cfg.Mt transmitters.
func SourceBits(cfg Config) int {
	code, err := stbc.ForTransmitters(cfg.Mt)
	if err != nil {
		return 0
	}
	bitsPerBlock := code.BlockSymbols() * cfg.B
	return max(1, cfg.Bits/bitsPerBlock) * bitsPerBlock
}

// TransportInto pushes the given source bits through one cooperative
// hop on a caller-owned workspace, writing the bits decoded at the head
// of the receive cluster into dst (which must have length len(src)) and
// returning the measured rates. len(src) must be a positive multiple of
// the STBC block payload (BlockSymbols * b). Multi-hop relays chain
// TransportInto calls, ping-ponging two buffers so the whole route
// stays allocation-free. Every call reseeds the workspace with cfg.Seed.
func TransportInto(ws *Workspace, cfg Config, src, dst []byte) (Result, error) {
	ws.rng.Reseed(cfg.Seed)
	return transport(ws, cfg, src, dst)
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
