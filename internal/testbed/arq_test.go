package testbed

import (
	"math"
	"testing"
)

func arqExp(t *testing.T) UnderlayExperiment {
	t.Helper()
	x := PaperUnderlay(31)
	img, err := NewImage(200, 1500, 31)
	if err != nil {
		t.Fatal(err)
	}
	x.Image = img
	return x
}

func TestRunARQValidation(t *testing.T) {
	x := arqExp(t)
	if _, err := x.RunARQ(0, 3); err == nil {
		t.Error("zero amplitude should fail")
	}
	if _, err := x.RunARQ(600, -1); err == nil {
		t.Error("negative retries should fail")
	}
	x.Image = nil
	if _, err := x.RunARQ(600, 3); err == nil {
		t.Error("missing image should fail")
	}
}

// TestARQZeroRetriesMatchesPER: with no retransmissions the delivered
// fraction equals 1 - coop PER of the plain experiment at that
// amplitude (same channel model, independent noise draws).
func TestARQZeroRetriesMatchesPER(t *testing.T) {
	x := arqExp(t)
	arq, err := x.RunARQ(400, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := x.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	if arq.MeanTransmissions != 1 {
		t.Errorf("no retries but %v transmissions per frame", arq.MeanTransmissions)
	}
	if math.Abs((1-arq.Delivered)-plain.CoopPER) > 0.08 {
		t.Errorf("single-shot loss %v vs PER %v", 1-arq.Delivered, plain.CoopPER)
	}
}

// TestARQRecoversEverything: at the paper's marginal amplitude 400
// (coop PER ~ 15-20%), a handful of retries delivers essentially the
// whole image.
func TestARQRecoversEverything(t *testing.T) {
	x := arqExp(t)
	r, err := x.RunARQ(400, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered < 0.995 {
		t.Errorf("delivered %v with 8 retries, want ~1", r.Delivered)
	}
	// The price: more than one transmission per frame on average.
	if r.MeanTransmissions <= 1.05 {
		t.Errorf("mean transmissions %v should reflect the retries", r.MeanTransmissions)
	}
}

// TestARQGoodputFallsWithAmplitude: lower transmit amplitude means more
// retransmissions per delivered bit.
func TestARQGoodputFallsWithAmplitude(t *testing.T) {
	x := arqExp(t)
	hi, err := x.RunARQ(800, 8)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := x.RunARQ(400, 8)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Goodput >= hi.Goodput {
		t.Errorf("goodput should fall with amplitude: %v vs %v", lo.Goodput, hi.Goodput)
	}
	if hi.Goodput <= 0 || hi.Goodput > 1 {
		t.Errorf("goodput %v outside (0, 1]", hi.Goodput)
	}
	if lo.MeanTransmissions <= hi.MeanTransmissions {
		t.Errorf("retransmissions should grow as amplitude falls: %v vs %v",
			lo.MeanTransmissions, hi.MeanTransmissions)
	}
}

// TestFECImprovesMarginalPER: Hamming(7,4) under the frame path lowers
// the packet error rate at the marginal amplitudes, where bit errors
// are scattered enough to correct.
func TestFECImprovesMarginalPER(t *testing.T) {
	plain := arqExp(t)
	coded := arqExp(t)
	coded.UseFEC = true
	for _, amp := range []float64{600, 400} {
		p, err := plain.Run(amp)
		if err != nil {
			t.Fatal(err)
		}
		c, err := coded.Run(amp)
		if err != nil {
			t.Fatal(err)
		}
		if c.CoopPER >= p.CoopPER && p.CoopPER > 0.02 {
			t.Errorf("A=%v: FEC coop PER %v should beat plain %v", amp, c.CoopPER, p.CoopPER)
		}
		if c.DirectPER > p.DirectPER*1.2+0.02 {
			t.Errorf("A=%v: FEC direct PER %v should not be much worse than plain %v", amp, c.DirectPER, p.DirectPER)
		}
	}
}
