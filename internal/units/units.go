// Package units provides typed physical quantities and the decibel
// conversions used throughout the cooperative-MIMO energy model.
//
// Internally the library works in SI units (watts, joules, metres, hertz,
// seconds). Decibel forms (dB, dBm, dBi) appear only at configuration
// boundaries, mirroring how the paper states its system constants
// (e.g. Ml = 40 dB, sigma^2 = -174 dBm/Hz).
package units

import (
	"fmt"
	"math"
)

// DB is a dimensionless power ratio expressed in decibels.
type DB float64

// DBm is an absolute power level referenced to one milliwatt.
type DBm float64

// Watt is power in watts.
type Watt float64

// JoulePerBit is an energy cost normalised per transported bit.
type JoulePerBit float64

// Hertz is frequency or bandwidth in hertz.
type Hertz float64

// Second is a duration in seconds.
type Second float64

// Linear converts a decibel ratio to its linear equivalent.
func (d DB) Linear() float64 { return math.Pow(10, float64(d)/10) }

// FromLinear converts a linear power ratio to decibels.
func FromLinear(ratio float64) DB {
	return DB(10 * math.Log10(ratio))
}

// Watts converts an absolute dBm level to watts.
func (d DBm) Watts() Watt {
	return Watt(math.Pow(10, (float64(d)-30)/10))
}

// WattsToDBm converts watts to dBm.
func WattsToDBm(w Watt) DBm {
	return DBm(10*math.Log10(float64(w)) + 30)
}

// DBmPerHzToWattsPerHz converts a spectral density in dBm/Hz to W/Hz.
// The paper's noise parameters sigma^2 = -174 dBm/Hz and N0 = -171 dBm/Hz
// are stated this way.
func DBmPerHzToWattsPerHz(d float64) float64 {
	return math.Pow(10, (d-30)/10)
}

// MilliWatt constructs a Watt value from milliwatts; the paper quotes its
// circuit powers (Pct, Pcr, Psyn) in mW.
func MilliWatt(mw float64) Watt { return Watt(mw / 1000) }

// String implementations keep experiment reports readable.

func (w Watt) String() string        { return fmt.Sprintf("%.4g W", float64(w)) }
func (j JoulePerBit) String() string { return fmt.Sprintf("%.4g J/bit", float64(j)) }
func (h Hertz) String() string       { return fmt.Sprintf("%.4g Hz", float64(h)) }
func (s Second) String() string      { return fmt.Sprintf("%.4g s", float64(s)) }
