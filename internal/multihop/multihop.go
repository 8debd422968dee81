// Package multihop chains symbol-level cooperative hops (internal/coop)
// along a CoMIMONet backbone route: "the data transmitted from the
// source node to the final destination node usually takes multiple
// hops" (Section 2.2). Each hop decodes at the receive cluster's head
// and re-encodes for the next hop, so errors accumulate hop by hop —
// approximately additively while per-hop BERs are small.
package multihop

import (
	"fmt"
	"sync"

	"repro/internal/coop"
	"repro/internal/mathx"
)

// Hop describes one backbone hop.
type Hop struct {
	// Mt and Mr are the cooperating node counts of the transmit and
	// receive clusters.
	Mt, Mr int
	// SNRPerBit is the hop's long-haul mean per-bit SNR (linear).
	SNRPerBit float64
}

// Config describes a route transport.
type Config struct {
	// Hops in path order.
	Hops []Hop
	// B is the constellation size used on every hop.
	B int
	// LocalSNRPerBit is the intra-cluster SNR (0 = ideal).
	LocalSNRPerBit float64
	// Bits is the payload size; rounded up to whole blocks per hop.
	Bits int
	// Seed drives the run.
	Seed int64
}

// Validate rejects unusable routes.
func (c Config) Validate() error {
	if len(c.Hops) == 0 {
		return fmt.Errorf("multihop: empty route")
	}
	if c.Bits < 1 {
		return fmt.Errorf("multihop: bit count %d must be positive", c.Bits)
	}
	for i, h := range c.Hops {
		hopCfg := coop.Config{
			Mt: h.Mt, Mr: h.Mr, B: c.B,
			SNRPerBit: h.SNRPerBit, Bits: c.Bits, Seed: 1,
		}
		if err := hopCfg.Validate(); err != nil {
			return fmt.Errorf("multihop: hop %d: %w", i, err)
		}
	}
	return nil
}

// Result reports a route transport.
type Result struct {
	// EndToEndBER compares delivered bits against the source.
	EndToEndBER float64
	// PerHopBER is each hop's own error rate (against its input). Run
	// returns an owned slice; from RunWith it aliases the workspace, and
	// the next run on that workspace overwrites it.
	PerHopBER []float64
	// PredictedBER is the small-error approximation: the sum of each
	// hop's closed-form BER.
	PredictedBER float64
	// Bits transported.
	Bits int
}

// Workspace holds the reusable scratch state for one goroutine's route
// transports: a hop workspace plus the payload, ping-pong relay and
// per-hop buffers, so repeated runs do not allocate.
// Not safe for concurrent use; keep one per worker.
type Workspace struct {
	rng    *mathx.ReusableRand
	hop    *coop.Workspace
	src    []byte
	pong   [2][]byte
	seeds  []int64
	perHop []float64
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace {
	return &Workspace{rng: mathx.NewReusableRand(), hop: coop.NewWorkspace()}
}

var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// GetWorkspace takes a workspace from the shared pool.
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// PutWorkspace returns a workspace to the shared pool.
func PutWorkspace(ws *Workspace) { wsPool.Put(ws) }

// Run transports a random payload along the route, using a pooled
// workspace, and returns a self-contained result.
func Run(cfg Config) (Result, error) {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	r, err := RunWith(ws, cfg)
	if err != nil {
		return Result{}, err
	}
	r.PerHopBER = append([]float64(nil), r.PerHopBER...)
	return r, nil
}

// RunWith is Run on a caller-owned workspace. Hop i's decoded bits feed
// hop i+1 through two ping-pong buffers, so the whole route reuses the
// workspace's scratch while consuming exactly the rng streams a fresh
// run would. Each hop crosses one coop.TransportInto. The returned
// PerHopBER aliases the workspace: the next run on it overwrites the
// slice.
func RunWith(ws *Workspace, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cap(ws.perHop) < len(cfg.Hops) {
		ws.perHop = make([]float64, len(cfg.Hops))
	}
	perHop := ws.perHop[:len(cfg.Hops)]
	ws.rng.Reseed(cfg.Seed)
	if cap(ws.seeds) < len(cfg.Hops) {
		ws.seeds = make([]int64, len(cfg.Hops))
	}
	ws.seeds = ws.seeds[:len(cfg.Hops)]
	state := uint64(cfg.Seed)
	for i := range ws.seeds {
		ws.seeds[i] = int64(mathx.SplitMix64(&state))
	}

	// Block payloads may differ per hop (mt fixes the STBC), so the
	// payload is rounded up to a size every hop's block divides.
	bits := roundUpToBlocks(cfg)
	if cap(ws.src) < bits {
		ws.src = make([]byte, bits)
	}
	src := ws.src[:bits]
	ws.rng.Bits(src)

	res := Result{Bits: bits, PerHopBER: perHop}
	cur := src
	for i, h := range cfg.Hops {
		hopCfg := coop.Config{
			Mt: h.Mt, Mr: h.Mr, B: cfg.B,
			SNRPerBit:      h.SNRPerBit,
			LocalSNRPerBit: cfg.LocalSNRPerBit,
			Bits:           bits,
			Seed:           ws.seeds[i],
		}
		if cap(ws.pong[i%2]) < bits {
			ws.pong[i%2] = make([]byte, bits)
		}
		dst := ws.pong[i%2][:bits]
		hopRes, err := coop.TransportInto(ws.hop, hopCfg, cur, dst)
		if err != nil {
			return Result{}, fmt.Errorf("multihop: hop %d: %w", i, err)
		}
		res.PerHopBER[i] = hopRes.BER
		res.PredictedBER += coop.PredictBER(hopCfg)
		cur = dst
	}
	errs := 0
	for i := range src {
		if cur[i] != src[i] {
			errs++
		}
	}
	res.EndToEndBER = float64(errs) / float64(bits)
	return res, nil
}

// roundUpToBlocks returns the smallest bit count >= cfg.Bits divisible
// by every hop's STBC block payload. Block payloads are K*b with
// K in {1, 2, 3}, so 6*b always works as the common block unit.
func roundUpToBlocks(cfg Config) int {
	unit := 6 * cfg.B
	n := cfg.Bits
	if rem := n % unit; rem != 0 {
		n += unit - rem
	}
	return n
}
