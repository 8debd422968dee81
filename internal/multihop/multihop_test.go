package multihop

import (
	"math"
	"testing"
)

func route(snrDB float64, pairs ...[2]int) Config {
	hops := make([]Hop, len(pairs))
	for i, p := range pairs {
		hops[i] = Hop{Mt: p[0], Mr: p[1], SNRPerBit: math.Pow(10, snrDB/10)}
	}
	return Config{Hops: hops, B: 1, Bits: 120000, Seed: 5}
}

func TestValidate(t *testing.T) {
	if err := route(10, [2]int{2, 2}).Validate(); err != nil {
		t.Fatal(err)
	}
	if (Config{}).Validate() == nil {
		t.Error("empty route should fail")
	}
	bad := route(10, [2]int{2, 2})
	bad.Bits = 0
	if bad.Validate() == nil {
		t.Error("zero bits should fail")
	}
	bad = route(10, [2]int{0, 2})
	if bad.Validate() == nil {
		t.Error("invalid hop should fail")
	}
	bad = route(0, [2]int{2, 2})
	bad.Hops[0].SNRPerBit = 0
	if bad.Validate() == nil {
		t.Error("zero SNR should fail")
	}
}

// TestErrorsAccumulateAdditively: in the small-BER regime the
// end-to-end error rate approaches the sum of per-hop rates.
func TestErrorsAccumulateAdditively(t *testing.T) {
	cfg := route(11, [2]int{2, 2}, [2]int{2, 2}, [2]int{2, 2})
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range r.PerHopBER {
		sum += p
	}
	if sum == 0 {
		t.Fatal("per-hop BERs all zero; raise the noise")
	}
	if math.Abs(r.EndToEndBER-sum) > 0.25*sum+2e-4 {
		t.Errorf("end-to-end %v vs per-hop sum %v", r.EndToEndBER, sum)
	}
	if math.Abs(r.EndToEndBER-r.PredictedBER) > 0.35*r.PredictedBER+3e-4 {
		t.Errorf("end-to-end %v vs closed-form sum %v", r.EndToEndBER, r.PredictedBER)
	}
}

// TestMoreHopsMoreErrors: every extra hop costs errors.
func TestMoreHopsMoreErrors(t *testing.T) {
	one, err := Run(route(9, [2]int{2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	three, err := Run(route(9, [2]int{2, 2}, [2]int{2, 2}, [2]int{2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if three.EndToEndBER <= one.EndToEndBER {
		t.Errorf("3 hops (%v) should err more than 1 (%v)", three.EndToEndBER, one.EndToEndBER)
	}
}

// TestCooperationBeatsSISORoute: the route-level version of the paper's
// claim — cooperative clusters deliver far cleaner end-to-end data than
// single-node relaying at the same per-hop SNR.
func TestCooperationBeatsSISORoute(t *testing.T) {
	siso, err := Run(route(8, [2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	coop, err := Run(route(8, [2]int{2, 2}, [2]int{2, 2}, [2]int{2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if coop.EndToEndBER*4 > siso.EndToEndBER {
		t.Errorf("cooperative route %v should be far below SISO %v",
			coop.EndToEndBER, siso.EndToEndBER)
	}
}

func TestMixedClusterSizes(t *testing.T) {
	// Route through clusters of different sizes: 3 -> 2 -> 4 nodes.
	r, err := Run(route(10, [2]int{3, 2}, [2]int{2, 4}, [2]int{4, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerHopBER) != 3 {
		t.Fatalf("hops = %d", len(r.PerHopBER))
	}
	if r.Bits%6 != 0 {
		t.Errorf("bit count %d not block-aligned", r.Bits)
	}
}

func TestBitsRoundUp(t *testing.T) {
	cfg := route(10, [2]int{2, 2})
	cfg.Bits = 7 // not a multiple of any block
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bits < 7 || r.Bits%6 != 0 {
		t.Errorf("rounded bits = %d", r.Bits)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := route(10, [2]int{2, 2}, [2]int{2, 1})
	cfg.Bits = 30000
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.EndToEndBER != b.EndToEndBER {
		t.Errorf("same seed diverged: %v vs %v", a.EndToEndBER, b.EndToEndBER)
	}
}
