package sensing

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/sim"
)

func TestNewDetectorForPfa(t *testing.T) {
	d, err := NewDetectorForPfa(500, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Pfa()-0.05) > 1e-9 {
		t.Errorf("designed Pfa = %v, want 0.05", d.Pfa())
	}
	if _, err := NewDetectorForPfa(0, 0.05); err == nil {
		t.Error("zero samples should fail")
	}
	if _, err := NewDetectorForPfa(100, 0); err == nil {
		t.Error("Pfa=0 should fail")
	}
	if _, err := NewDetectorForPfa(100, 1); err == nil {
		t.Error("Pfa=1 should fail")
	}
}

func TestDetectorOperatingPoint(t *testing.T) {
	d, err := NewDetectorForPfa(400, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRand(91)
	const trials = 20000
	fa, det := 0, 0
	const snr = 0.2 // -7 dB per sample
	for i := 0; i < trials; i++ {
		if hit, _ := d.Sense(rng, false, 0); hit {
			fa++
		}
		if hit, _ := d.Sense(rng, true, snr); hit {
			det++
		}
	}
	gotPfa := float64(fa) / trials
	gotPd := float64(det) / trials
	if math.Abs(gotPfa-0.05) > 0.012 {
		t.Errorf("measured Pfa = %v, want ~0.05", gotPfa)
	}
	wantPd := d.Pd(snr)
	if math.Abs(gotPd-wantPd) > 0.05 {
		t.Errorf("measured Pd = %v vs theory %v", gotPd, wantPd)
	}
	if wantPd < 0.5 {
		t.Errorf("operating point too weak to be a useful test: Pd = %v", wantPd)
	}
}

func TestPdMonotonicity(t *testing.T) {
	d, _ := NewDetectorForPfa(300, 0.01)
	prev := d.Pd(0)
	for snr := 0.01; snr < 2; snr *= 2 {
		cur := d.Pd(snr)
		if cur < prev {
			t.Errorf("Pd not increasing at snr=%v", snr)
		}
		prev = cur
	}
	// Negative SNR clamps to the noise-only point.
	if d.Pd(-1) != d.Pd(0) {
		t.Error("negative SNR should clamp")
	}
	// Longer windows detect better at fixed Pfa.
	short, _ := NewDetectorForPfa(100, 0.05)
	long, _ := NewDetectorForPfa(1000, 0.05)
	if long.Pd(0.1) <= short.Pd(0.1) {
		t.Errorf("longer window should raise Pd: %v vs %v", long.Pd(0.1), short.Pd(0.1))
	}
}

func TestFuse(t *testing.T) {
	votes := []bool{true, false, false}
	if got, _ := Fuse(FusionOR, votes); !got {
		t.Error("OR should fire")
	}
	if got, _ := Fuse(FusionAND, votes); got {
		t.Error("AND should not fire")
	}
	if got, _ := Fuse(FusionMajority, votes); got {
		t.Error("majority 1/3 should not fire")
	}
	if got, _ := Fuse(FusionMajority, []bool{true, true, false}); !got {
		t.Error("majority 2/3 should fire")
	}
	if _, err := Fuse(FusionOR, nil); err == nil {
		t.Error("empty votes should fail")
	}
	if _, err := Fuse(FusionRule(9), votes); err == nil {
		t.Error("unknown rule should fail")
	}
}

func TestCooperativePd(t *testing.T) {
	// OR of 3 SUs at p=0.6: 1 - 0.4^3 = 0.936.
	if got, _ := CooperativePd(FusionOR, 3, 0.6); math.Abs(got-0.936) > 1e-12 {
		t.Errorf("OR = %v", got)
	}
	// AND: 0.6^3 = 0.216.
	if got, _ := CooperativePd(FusionAND, 3, 0.6); math.Abs(got-0.216) > 1e-12 {
		t.Errorf("AND = %v", got)
	}
	// Majority of 3 at 0.6: C(3,2)*0.36*0.4 + 0.216 = 0.648.
	if got, _ := CooperativePd(FusionMajority, 3, 0.6); math.Abs(got-0.648) > 1e-12 {
		t.Errorf("majority = %v", got)
	}
	// OR dominates single; AND is dominated.
	or, _ := CooperativePd(FusionOR, 4, 0.5)
	and, _ := CooperativePd(FusionAND, 4, 0.5)
	if !(or > 0.5 && and < 0.5) {
		t.Errorf("fusion ordering: OR %v, AND %v", or, and)
	}
	if _, err := CooperativePd(FusionOR, 0, 0.5); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := CooperativePd(FusionOR, 2, 1.5); err == nil {
		t.Error("p>1 should fail")
	}
	if _, err := CooperativePd(FusionRule(9), 2, 0.5); err == nil {
		t.Error("unknown rule should fail")
	}
}

func TestCooperativePdMatchesSimulation(t *testing.T) {
	d, _ := NewDetectorForPfa(300, 0.05)
	rng := mathx.NewRand(92)
	const snr, k, trials = 0.15, 3, 8000
	hits := 0
	for i := 0; i < trials; i++ {
		votes := make([]bool, k)
		for v := range votes {
			votes[v], _ = d.Sense(rng, true, snr)
		}
		if ok, _ := Fuse(FusionOR, votes); ok {
			hits++
		}
	}
	want, _ := CooperativePd(FusionOR, k, d.Pd(snr))
	got := float64(hits) / trials
	if math.Abs(got-want) > 0.05 {
		t.Errorf("cooperative Pd %v vs theory %v", got, want)
	}
}

func TestPUActivity(t *testing.T) {
	var eng sim.Engine
	rng := mathx.NewRand(93)
	a, err := NewPUActivity(&eng, rng, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Busy() {
		t.Error("should start idle")
	}
	eng.Run(20000)
	const want = 2.0 / (2 + 3) // stationary busy fraction
	if got := a.DutyCycle(); math.Abs(got-want) > 0.03 {
		t.Errorf("duty cycle %v, want ~%v", got, want)
	}
	if _, err := NewPUActivity(&eng, rng, 0, 1); err == nil {
		t.Error("zero holding time should fail")
	}
}

func TestPUActivityZeroTime(t *testing.T) {
	var eng sim.Engine
	a, err := NewPUActivity(&eng, mathx.NewRand(1), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.DutyCycle() != 0 {
		t.Error("duty cycle before any time should be 0")
	}
}

func TestChannelSelector(t *testing.T) {
	var eng sim.Engine
	rng := mathx.NewRand(94)
	busyPU, _ := NewPUActivity(&eng, rng, 1e9, 1e-9) // essentially always busy
	idlePU, _ := NewPUActivity(&eng, rng, 1e-9, 1e9) // essentially always idle
	eng.Run(10)

	d, _ := NewDetectorForPfa(600, 0.01)
	sel := ChannelSelector{Detector: d, Sensors: 3, Rule: FusionOR}
	channels := []Channel{
		{Activity: busyPU, SNR: 0.5},
		{Activity: idlePU, SNR: 0.5},
	}
	// Across repeated scans, the busy channel (strong PU, OR fusion)
	// should essentially never be picked.
	pickedBusy, pickedIdle := 0, 0
	for i := 0; i < 200; i++ {
		idx, err := sel.Select(rng, channels)
		if err != nil {
			t.Fatal(err)
		}
		switch idx {
		case 0:
			pickedBusy++
		case 1:
			pickedIdle++
		}
	}
	if pickedBusy > 2 {
		t.Errorf("picked the busy channel %d times", pickedBusy)
	}
	if pickedIdle < 190 {
		t.Errorf("picked the idle channel only %d of 200", pickedIdle)
	}
	if _, err := sel.Select(rng, nil); err == nil {
		t.Error("no channels should fail")
	}
	bad := sel
	bad.Sensors = 0
	if _, err := bad.Select(rng, channels); err == nil {
		t.Error("zero sensors should fail")
	}
}
