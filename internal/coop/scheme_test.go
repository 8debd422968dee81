package coop

// Derivation used by the energy scaling and these tests: with
// per-antenna per-slot symbol energy ea and unit-variance noise, an
// orthogonal STBC's matched filter yields per-symbol SNR
// ||H||_F^2 * ea, so per-bit gamma_b = ||H||^2 ea / b. Setting
// ea = SNRPerBit * b * R / mt makes gamma_b = ||H||^2 SNRPerBit R / mt,
// i.e. the paper's normalisation with the code rate R folded in (R = 1
// for SISO/Alamouti, 3/4 for the 3- and 4-antenna designs).

import (
	"math"
	"testing"
)

func base(mt, mr int) Config {
	return Config{
		Mt: mt, Mr: mr, B: 1,
		SNRPerBit: math.Pow(10, 1.2), // 12 dB
		Bits:      200000,
		Seed:      1,
	}
}

func TestValidate(t *testing.T) {
	good := base(2, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// +Inf local SNR is the documented "ideal links" value.
	good.LocalSNRPerBit = math.Inf(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Mt = 0 },
		func(c *Config) { c.Mr = 5 },
		func(c *Config) { c.B = 0 },
		func(c *Config) { c.B = 17 },
		func(c *Config) { c.SNRPerBit = 0 },
		func(c *Config) { c.SNRPerBit = math.NaN() },
		func(c *Config) { c.SNRPerBit = math.Inf(1) },
		func(c *Config) { c.LocalSNRPerBit = -1 },
		func(c *Config) { c.LocalSNRPerBit = math.NaN() },
		func(c *Config) { c.Bits = 0 },
	}
	for i, mutate := range cases {
		c := base(2, 2)
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestSchemeNames(t *testing.T) {
	cases := []struct {
		mt, mr int
		want   string
	}{
		{1, 1, "SISO"}, {2, 1, "MISO"}, {1, 2, "SIMO"}, {3, 2, "MIMO"},
	}
	for _, c := range cases {
		cfg := base(c.mt, c.mr)
		if got := cfg.SchemeName(); got != c.want {
			t.Errorf("%dx%d = %s, want %s", c.mt, c.mr, got, c.want)
		}
	}
}

// TestMatchesClosedForm is the package's core contract: with ideal local
// links, the measured end-to-end BER approaches the eq. (5)/(6) average
// with the code rate folded in, for every scheme.
func TestMatchesClosedForm(t *testing.T) {
	for _, pair := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 1}, {4, 1}} {
		cfg := base(pair[0], pair[1])
		// Keep predicted BER around 1e-2..1e-1 so 200k bits give tight
		// estimates: lower SNR for low diversity, higher for high.
		switch pair[0] * pair[1] {
		case 1:
			cfg.SNRPerBit = math.Pow(10, 0.8)
		case 2:
			cfg.SNRPerBit = math.Pow(10, 0.6)
		default:
			cfg.SNRPerBit = math.Pow(10, 0.4)
		}
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := PredictBER(cfg)
		if math.Abs(got.BER-want) > 0.15*want+2e-4 {
			t.Errorf("%dx%d: measured %v vs closed form %v", pair[0], pair[1], got.BER, want)
		}
		if got.LocalBER != 0 {
			t.Errorf("%dx%d: ideal local links reported BER %v", pair[0], pair[1], got.LocalBER)
		}
	}
}

func TestQPSKMatchesClosedForm(t *testing.T) {
	cfg := base(2, 2)
	cfg.B = 2
	cfg.SNRPerBit = math.Pow(10, 0.6)
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := PredictBER(cfg)
	if math.Abs(got.BER-want) > 0.15*want+2e-4 {
		t.Errorf("QPSK 2x2: measured %v vs %v", got.BER, want)
	}
}

// TestDiversityOrdering: more cooperating nodes, fewer errors, at equal
// SNRPerBit — the gain the whole paper rides on.
func TestDiversityOrdering(t *testing.T) {
	snr := math.Pow(10, 0.9)
	ber := func(mt, mr int) float64 {
		cfg := base(mt, mr)
		cfg.SNRPerBit = snr
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.BER
	}
	siso := ber(1, 1)
	miso := ber(2, 1)
	mimo := ber(2, 2)
	if !(siso > 1.5*miso && miso > 1.5*mimo) {
		t.Errorf("diversity ordering violated: %v / %v / %v", siso, miso, mimo)
	}
}

// TestLocalErrorsPropagate: corrupted Step 1 copies floor the end-to-end
// BER no matter how strong the long-haul link is.
func TestLocalErrorsPropagate(t *testing.T) {
	cfg := base(2, 1)
	cfg.SNRPerBit = 1e4                    // long-haul essentially error-free
	cfg.LocalSNRPerBit = math.Pow(10, 0.3) // ~2 dB: sloppy broadcast
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.LocalBER < 1e-3 {
		t.Fatalf("local BER %v too small to exercise propagation", r.LocalBER)
	}
	if r.BER < r.LocalBER/10 {
		t.Errorf("end-to-end BER %v should be floored by local errors %v", r.BER, r.LocalBER)
	}
	// Ideal local links remove the floor entirely.
	cfg.LocalSNRPerBit = 0
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.BER > r.BER/5 {
		t.Errorf("clean run %v should be far below corrupted %v", clean.BER, r.BER)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := base(2, 2)
	cfg.Bits = 30000
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestTinyBitCountRoundsUp(t *testing.T) {
	cfg := base(2, 1)
	cfg.Bits = 1 // less than one block
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bits < 2 {
		t.Errorf("should run at least one block, got %d bits", r.Bits)
	}
}
