// Package simkern registers the repository's named Monte-Carlo kernels
// with the sim registry. A kernel is the transportable form of a trial
// function: a name plus flat numeric parameters, from which any process
// holding this package can rebuild the identical trials. That is what
// lets internal/cluster ship chunk ranges to remote cogmimod workers —
// coordinator and worker both derive the trials from the same
// (kernel, params) pair, so a shard computed anywhere is bit-identical
// to the chunk the local pool would have run.
//
// Import the package (usually transitively, via internal/experiments)
// for its registration side effects.
package simkern

import (
	"fmt"
	"math"

	"repro/internal/coop"
	"repro/internal/multihop"
	"repro/internal/sim"
)

func init() {
	// One entry per physics. Both BER kernels declare Bernoulli units,
	// so adaptive budgets stop them on the Wilson rule under every
	// name. The aliases stay because the benchmark module, its
	// per-layer metric names and the ext-adaptive report still use
	// them.
	sim.RegisterKernel("coop.ber", sim.Kernel{Build: coopBERKernel, BernoulliUnits: coopBits,
		Aliases: []string{"coop.ber.batch", "coop.ber.adaptive"}})
	sim.RegisterKernel("multihop.ber", sim.Kernel{Build: multihopBERKernel, BernoulliUnits: multihopBits,
		Aliases: []string{"multihop.ber.batch"}})
}

// coopBits returns the Bernoulli units one coop.ber trial contributes:
// the transmitted bit count. It lets binomial stopping rules treat the
// BER estimate as k errors in trials*bits bits.
func coopBits(params map[string]float64) float64 {
	bits, err := intParam(params, "bits", 64)
	if err != nil || bits <= 0 {
		return 0
	}
	return float64(bits)
}

// multihopBits returns the Bernoulli units one multihop.ber trial
// contributes: the payload rounded up to whole per-hop blocks, exactly
// as the route engine rounds it.
func multihopBits(params map[string]float64) float64 {
	b, err := intParam(params, "b", 1)
	if err != nil || b < 1 {
		return 0
	}
	bits, err := intParam(params, "bits", 64)
	if err != nil || bits <= 0 {
		return 0
	}
	unit := 6 * b
	if rem := bits % unit; rem != 0 {
		bits += unit - rem
	}
	return float64(bits)
}

// maxBits caps the per-trial payload of the coop and multihop kernels:
// every trial allocates buffers proportional to it, so one request must
// not be able to make each trial allocate gigabytes.
const maxBits = 1 << 20

// bitsParam reads the per-trial payload size, capped at maxBits.
func bitsParam(params map[string]float64) (int, error) {
	bits, err := intParam(params, "bits", 64)
	if err != nil {
		return 0, err
	}
	if bits > maxBits {
		return 0, fmt.Errorf("simkern: bits = %d above the %d cap", bits, maxBits)
	}
	return bits, nil
}

// intParam reads an integral parameter, rejecting NaN, fractions and
// out-of-range values so bad requests fail at kernel build time — the
// batch itself has no error channel.
func intParam(params map[string]float64, name string, def int) (int, error) {
	v, ok := params[name]
	if !ok {
		return def, nil
	}
	if math.IsNaN(v) || v != math.Trunc(v) || v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("simkern: parameter %q = %v is not a small integer", name, v)
	}
	return int(v), nil
}

// coopBERKernel measures the end-to-end BER of one cooperative hop
// (internal/coop) per trial, each trial one coop.RunWith on the SoA
// batch engine. Parameters:
//
//	mt, mr   cooperating node counts (default 2x2)
//	b        bits per symbol (default 1)
//	snr_db   long-haul per-bit SNR in dB (default 10)
//	local_db intra-cluster per-bit SNR in dB (absent = ideal links)
//	bits     information bits per trial (default 64, at most 1<<20)
//
// A trial seeds the hop with its own seed, so trial t of chunk c is the
// same experiment no matter which worker runs it.
func coopBERKernel(params map[string]float64) (sim.TrialFunc, error) {
	cfg, err := coopConfig(params)
	if err != nil {
		return nil, err
	}
	return func(seeds []int64, vals []float64) {
		ws := coop.GetWorkspace()
		defer coop.PutWorkspace(ws)
		c := cfg
		for i, s := range seeds {
			c.Seed = s
			r, err := coop.RunWith(ws, c)
			if err != nil {
				// Validated at build time; unreachable for a registered run.
				panic(err)
			}
			vals[i] = r.BER
		}
	}, nil
}

// coopConfig builds and validates the coop.Config a kernel's flat
// parameters describe; the seed is a placeholder — trials reseed from
// the chunk stream.
func coopConfig(params map[string]float64) (coop.Config, error) {
	var cfg coop.Config
	mt, err := intParam(params, "mt", 2)
	if err != nil {
		return cfg, err
	}
	mr, err := intParam(params, "mr", 2)
	if err != nil {
		return cfg, err
	}
	b, err := intParam(params, "b", 1)
	if err != nil {
		return cfg, err
	}
	bits, err := bitsParam(params)
	if err != nil {
		return cfg, err
	}
	snrDB, ok := params["snr_db"]
	if !ok {
		snrDB = 10
	}
	cfg = coop.Config{
		Mt: mt, Mr: mr, B: b,
		SNRPerBit: math.Pow(10, snrDB/10),
		Bits:      bits,
	}
	if localDB, ok := params["local_db"]; ok {
		cfg.LocalSNRPerBit = math.Pow(10, localDB/10)
	}
	cfg.Seed = 1 // placeholder for validation; trials reseed per draw
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// multihopBERKernel measures the end-to-end BER of a route of
// identical cooperative hops (internal/multihop) per trial, each trial
// one multihop.RunWith on the SoA batch engine. Parameters:
//
//	hops     hop count (default 2)
//	mt, mr   node counts per hop (default 2x2)
//	b        bits per symbol (default 1)
//	snr_db   per-hop per-bit SNR in dB (default 10)
//	bits     payload bits per trial (default 64, at most 1<<20)
func multihopBERKernel(params map[string]float64) (sim.TrialFunc, error) {
	cfg, err := multihopConfig(params)
	if err != nil {
		return nil, err
	}
	return func(seeds []int64, vals []float64) {
		ws := multihop.GetWorkspace()
		defer multihop.PutWorkspace(ws)
		c := cfg
		for i, s := range seeds {
			c.Seed = s
			r, err := multihop.RunWith(ws, c)
			if err != nil {
				// Validated at build time; unreachable for a registered run.
				panic(err)
			}
			vals[i] = r.EndToEndBER
		}
	}, nil
}

// multihopConfig builds and validates the multihop.Config a kernel's
// flat parameters describe; the seed is a placeholder — trials reseed
// from the chunk stream.
func multihopConfig(params map[string]float64) (multihop.Config, error) {
	var cfg multihop.Config
	hops, err := intParam(params, "hops", 2)
	if err != nil {
		return cfg, err
	}
	if hops < 1 || hops > 16 {
		return cfg, fmt.Errorf("simkern: hop count %d outside [1, 16]", hops)
	}
	mt, err := intParam(params, "mt", 2)
	if err != nil {
		return cfg, err
	}
	mr, err := intParam(params, "mr", 2)
	if err != nil {
		return cfg, err
	}
	b, err := intParam(params, "b", 1)
	if err != nil {
		return cfg, err
	}
	bits, err := bitsParam(params)
	if err != nil {
		return cfg, err
	}
	snrDB, ok := params["snr_db"]
	if !ok {
		snrDB = 10
	}
	route := make([]multihop.Hop, hops)
	for i := range route {
		route[i] = multihop.Hop{Mt: mt, Mr: mr, SNRPerBit: math.Pow(10, snrDB/10)}
	}
	cfg = multihop.Config{Hops: route, B: b, Bits: bits, Seed: 1}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}
