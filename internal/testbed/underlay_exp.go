package testbed

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mathx"
	"repro/internal/modulation"
)

// UnderlayExperiment measures the packet error rate of an image transfer
// from two adjacent secondary transmitters to one receiver, with and
// without cooperation, at several transmit amplitudes — the Section 6.4
// underlay testbed (GMSK, 1500-byte packets, 474-packet image).
//
// Amplitudes scale the transmit voltage: power follows (A/RefAmplitude)^2
// relative to the SNR calibrated at RefAmplitude. The cooperative arm
// runs Alamouti across the two transmitters with each at full amplitude
// (as the testbed did); the non-cooperative arm uses one transmitter.
type UnderlayExperiment struct {
	// Image is the payload (paper: 474 x 1500 B).
	Image *Image
	// SNRRefDB is the mean per-bit SNR at the receiver when transmitting
	// at RefAmplitude.
	SNRRefDB float64
	// RefAmplitude anchors the amplitude scale (paper uses 800).
	RefAmplitude float64
	// RicianK is the fading K-factor of the 12-foot indoor link.
	RicianK float64
	// PhaseJitter is the standard deviation (radians) of the relative
	// carrier phase between the two cooperative transmitters. The paper's
	// testbed sent the same GMSK stream from both radios simultaneously;
	// over a stable 12-foot line-of-sight the carriers add near-
	// coherently, so small jitter means close to +6 dB of array gain.
	PhaseJitter float64
	// Seed drives fading and bit noise.
	Seed int64
}

// PaperUnderlay returns the calibrated Section 6.4 configuration.
func PaperUnderlay(seed int64) UnderlayExperiment {
	return UnderlayExperiment{
		Image:        PaperImage(seed),
		SNRRefDB:     13.5,
		RefAmplitude: 800,
		RicianK:      4,
		PhaseJitter:  0.4,
		Seed:         seed,
	}
}

// PERResult is one Table 4 row.
type PERResult struct {
	Amplitude float64
	CoopPER   float64
	DirectPER float64
}

// frameScratch holds the per-run buffers the frame loop reuses: every
// frame in an image marshals to the same wire size, so one wire buffer,
// one bit expansion and one repacked-byte buffer serve the whole
// transfer. Corruption happens in the bit buffer; the wire stays
// read-only across both arms.
type frameScratch struct {
	wire []byte // marshalled frame
	bits []byte // bit-expanded wire, flipped in place
	data []byte // bits repacked for the CRC check
}

// Run measures both arms at the given amplitude. Every frame is
// marshalled, corrupted bit-by-bit at the fading-dependent GMSK BER,
// and checked through the CRC — a packet error is a CRC failure, as at
// a real receiver.
func (x UnderlayExperiment) Run(amplitude float64) (PERResult, error) {
	if x.Image == nil || len(x.Image.Frames) == 0 {
		return PERResult{}, fmt.Errorf("testbed: underlay experiment needs an image")
	}
	if amplitude <= 0 || x.RefAmplitude <= 0 {
		return PERResult{}, fmt.Errorf("testbed: amplitudes must be positive")
	}
	rng := mathx.NewRand(x.Seed)
	gamma0 := math.Pow(10, x.SNRRefDB/10) * (amplitude / x.RefAmplitude) * (amplitude / x.RefAmplitude)

	coopErrs, directErrs := 0, 0
	los := complex(math.Sqrt(x.RicianK/(x.RicianK+1)), 0)
	scatterVar := 1 / (x.RicianK + 1)
	var ws frameScratch
	for _, f := range x.Image.Frames {
		ws.wire = f.MarshalInto(ws.wire)
		wire := ws.wire

		// Fading is block-constant per frame on each transmit branch.
		h1 := los + mathx.ComplexCN(rng, scatterVar)
		h2 := los + mathx.ComplexCN(rng, scatterVar)

		// Non-cooperative: single branch.
		g1 := real(h1)*real(h1) + imag(h1)*imag(h1)
		pDirect := modulation.GMSKBERAWGN(g1 * gamma0)
		if corruptFrame(rng, wire, pDirect, &ws) {
			directErrs++
		}

		// Cooperative: both radios send the same stream at full
		// amplitude; the carriers add with a small residual phase
		// offset, so the received power is |h1 + h2 e^{j phi}|^2 gamma0.
		phi := rng.NormFloat64() * x.PhaseJitter
		sum := h1 + h2*complex(math.Cos(phi), math.Sin(phi))
		gc := real(sum)*real(sum) + imag(sum)*imag(sum)
		pCoop := modulation.GMSKBERAWGN(gc * gamma0)
		if corruptFrame(rng, wire, pCoop, &ws) {
			coopErrs++
		}
	}
	n := float64(len(x.Image.Frames))
	return PERResult{
		Amplitude: amplitude,
		CoopPER:   float64(coopErrs) / n,
		DirectPER: float64(directErrs) / n,
	}, nil
}

// RunTable evaluates the paper's amplitude sweep {800, 600, 400}.
func (x UnderlayExperiment) RunTable(amplitudes []float64) ([]PERResult, error) {
	if len(amplitudes) == 0 {
		amplitudes = []float64{800, 600, 400}
	}
	out := make([]PERResult, 0, len(amplitudes))
	for _, a := range amplitudes {
		r, err := x.Run(a)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// corruptFrame flips each wire bit independently with probability p and
// reports whether the CRC rejects the received frame. wire itself is
// never written; the flips land in ws.bits.
func corruptFrame(rng *rand.Rand, wire []byte, p float64, ws *frameScratch) bool {
	ws.bits = BitsInto(ws.bits, wire)
	bits := ws.bits
	flipped := false
	for i := range bits {
		if rng.Float64() < p {
			bits[i] ^= 1
			flipped = true
		}
	}
	if !flipped {
		return false
	}
	data, err := BytesInto(ws.data, bits)
	if err != nil {
		return true
	}
	ws.data = data
	return !FrameIntact(data)
}
