package testbed

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
)

func TestEnvSNR(t *testing.T) {
	e := DefaultEnv()
	a, b := geom.Pt(0, 0), geom.Pt(2, 0)
	snr := e.MeanSNR(a, b)
	// -14 dBm - (40 + 30*log10(2)) dB + 75 dB = 11.97 dB.
	want := math.Pow(10, (-14-(40+30*math.Log10(2))+75)/10)
	if math.Abs(snr/want-1) > 1e-9 {
		t.Errorf("SNR = %v, want %v", snr, want)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := e
	bad.BitRate = 0
	if bad.Validate() == nil {
		t.Error("zero bit rate should fail")
	}
	bad = e
	bad.Indoor.RefDist = 0
	if bad.Validate() == nil {
		t.Error("zero RefDist should fail")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Seq: 42, Payload: []byte("hello cognitive radio")}
	wire := f.MarshalInto(nil)
	if !FrameIntact(wire) {
		t.Fatal("marshalled frame fails its own CRC")
	}
	if seq := binary.BigEndian.Uint16(wire); seq != 42 || string(wire[2:len(wire)-4]) != "hello cognitive radio" {
		t.Errorf("round trip mangled: seq %d, payload %q", seq, wire[2:len(wire)-4])
	}
	// Reusing a large enough buffer writes into it.
	if again := f.MarshalInto(make([]byte, 0, 64)); !bytes.Equal(again, wire) {
		t.Errorf("MarshalInto into spare capacity = %x, want %x", again, wire)
	}
	// A flipped bit must fail the CRC.
	wire[3] ^= 0x10
	if FrameIntact(wire) {
		t.Error("corrupted frame should fail CRC")
	}
	// Too-short buffers fail cleanly.
	if FrameIntact([]byte{1, 2, 3}) {
		t.Error("short frame should fail")
	}
}

func TestBitsBytes(t *testing.T) {
	data := []byte{0xA5, 0x01, 0xFF, 0x00}
	bits := BitsInto(nil, data)
	if len(bits) != 32 {
		t.Fatalf("%d bits", len(bits))
	}
	if bits[0] != 1 || bits[1] != 0 || bits[7] != 1 {
		t.Errorf("0xA5 bits wrong: %v", bits[:8])
	}
	back, err := BytesInto(nil, bits)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if back[i] != data[i] {
			t.Fatalf("byte %d: %x vs %x", i, back[i], data[i])
		}
	}
	if _, err := BytesInto(nil, make([]byte, 7)); err == nil {
		t.Error("non-multiple-of-8 should fail")
	}
}

func TestImage(t *testing.T) {
	img := PaperImage(1)
	if len(img.Frames) != 474 {
		t.Fatalf("%d frames", len(img.Frames))
	}
	if len(img.Frames[0].Payload) != 1500 {
		t.Fatalf("payload %d bytes", len(img.Frames[0].Payload))
	}
	// Deterministic per seed.
	img2 := PaperImage(1)
	if string(img.Frames[7].Payload) != string(img2.Frames[7].Payload) {
		t.Error("same seed produced different images")
	}
	img3 := PaperImage(2)
	if string(img.Frames[7].Payload) == string(img3.Frames[7].Payload) {
		t.Error("different seeds produced identical frames")
	}
	if _, err := NewImage(0, 10, 1); err == nil {
		t.Error("zero frames should fail")
	}
	if _, err := NewImage(10, 0, 1); err == nil {
		t.Error("zero payload should fail")
	}
}

// TestTable2 reproduces the single-relay overlay experiment: the paper
// reports ~10.9% BER without cooperation and ~2.5% with; the calibrated
// testbed must land in the same bands with cooperation winning by >= 3x.
func TestTable2(t *testing.T) {
	r, err := Table2Setup(11).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.DirectBER < 0.06 || r.DirectBER > 0.20 {
		t.Errorf("direct BER = %.4f, paper ~0.109", r.DirectBER)
	}
	if r.CoopBER < 0.005 || r.CoopBER > 0.06 {
		t.Errorf("coop BER = %.4f, paper ~0.025", r.CoopBER)
	}
	if r.CoopBER*3 > r.DirectBER {
		t.Errorf("cooperation should win by >= 3x: %.4f vs %.4f", r.CoopBER, r.DirectBER)
	}
}

// TestTable3 reproduces the multi-relay ordering: direct > single-relay
// > multi-relay, with magnitudes near the paper's 22.7% / 10.6% / 2.9%.
func TestTable3(t *testing.T) {
	direct, err := Table3Setup(12, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	single, err := Table3Setup(12, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Table3Setup(12, 3).Run()
	if err != nil {
		t.Fatal(err)
	}
	if direct.DirectBER < 0.15 || direct.DirectBER > 0.40 {
		t.Errorf("direct BER = %.4f, paper ~0.227", direct.DirectBER)
	}
	if single.CoopBER < 0.04 || single.CoopBER > 0.16 {
		t.Errorf("single-relay BER = %.4f, paper ~0.106", single.CoopBER)
	}
	if multi.CoopBER < 0.01 || multi.CoopBER > 0.06 {
		t.Errorf("multi-relay BER = %.4f, paper ~0.029", multi.CoopBER)
	}
	if !(multi.CoopBER < single.CoopBER && single.CoopBER < direct.DirectBER) {
		t.Errorf("ordering violated: %.4f / %.4f / %.4f",
			multi.CoopBER, single.CoopBER, direct.DirectBER)
	}
}

func TestOverlayExperimentValidation(t *testing.T) {
	x := Table2Setup(1)
	x.Bits = 0
	if _, err := x.Run(); err == nil {
		t.Error("zero bits should fail")
	}
	x = Table2Setup(1)
	x.Env.BitRate = 0
	if _, err := x.Run(); err == nil {
		t.Error("invalid env should fail")
	}
}

func TestOverlayDeterminism(t *testing.T) {
	x := Table2Setup(3)
	x.Bits = 20000
	a, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestTable4 reproduces the underlay PER sweep: cooperation keeps the
// image recoverable (low PER) at every amplitude while the single
// transmitter degrades from ~25% loss to near-total loss.
func TestTable4(t *testing.T) {
	rows, err := PaperUnderlay(13).RunTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.CoopPER >= r.DirectPER {
			t.Errorf("A=%v: coop %.3f should beat direct %.3f", r.Amplitude, r.CoopPER, r.DirectPER)
		}
	}
	// Amplitude 800: coop near zero, direct ~25%.
	if rows[0].CoopPER > 0.05 {
		t.Errorf("coop@800 = %.3f, paper reports 0", rows[0].CoopPER)
	}
	if rows[0].DirectPER < 0.10 || rows[0].DirectPER > 0.45 {
		t.Errorf("direct@800 = %.3f, paper ~0.25", rows[0].DirectPER)
	}
	// Amplitude 400: direct near-total loss, coop still usable.
	if rows[2].DirectPER < 0.80 {
		t.Errorf("direct@400 = %.3f, paper ~0.97", rows[2].DirectPER)
	}
	if rows[2].CoopPER > 0.35 {
		t.Errorf("coop@400 = %.3f, paper ~0.14", rows[2].CoopPER)
	}
	// PER grows as amplitude falls, in both arms.
	for i := 1; i < len(rows); i++ {
		if rows[i].DirectPER < rows[i-1].DirectPER {
			t.Errorf("direct PER should grow as amplitude falls")
		}
	}
}

func TestUnderlayValidation(t *testing.T) {
	x := PaperUnderlay(1)
	if _, err := x.Run(0); err == nil {
		t.Error("zero amplitude should fail")
	}
	x.Image = nil
	if _, err := x.Run(800); err == nil {
		t.Error("missing image should fail")
	}
}

// TestFigure8 checks the beamformer pattern measurement: a pronounced
// dip at the 120-degree null that multipath keeps above zero, and a
// beamformer amplitude above the SISO baseline away from the null.
func TestFigure8(t *testing.T) {
	pts, err := PaperInterweave(14).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 { // 0..180 step 20
		t.Fatalf("%d points", len(pts))
	}
	var atNull PatternPoint
	for _, p := range pts {
		if p.AngleDeg == 120 {
			atNull = p
		}
	}
	if atNull.Ideal > 0.05 {
		t.Errorf("ideal pattern at null = %v, want ~0", atNull.Ideal)
	}
	if atNull.Measured <= 0.01 {
		t.Errorf("measured null = %v; multipath should keep it above zero", atNull.Measured)
	}
	if atNull.Measured > 0.6 {
		t.Errorf("measured null = %v; should remain a deep dip", atNull.Measured)
	}
	// Away from the null (beyond 20 degrees), beamformer > SISO.
	above := 0
	count := 0
	for _, p := range pts {
		if math.Abs(p.AngleDeg-120) <= 20 {
			continue
		}
		count++
		if p.Measured > p.SISO {
			above++
		}
	}
	if above < count-1 {
		t.Errorf("beamformer above SISO in only %d of %d off-null samples", above, count)
	}
}

func TestFigure8Validation(t *testing.T) {
	x := PaperInterweave(1)
	x.Averages = 0
	if _, err := x.Run(nil); err == nil {
		t.Error("zero averages should fail")
	}
	x = PaperInterweave(1)
	x.Radius = 0
	if _, err := x.Run(nil); err == nil {
		t.Error("zero radius should fail")
	}
}

func TestCorruptFrame(t *testing.T) {
	rng := mathx.NewRand(15)
	wire := Frame{Seq: 1, Payload: []byte("payload")}.MarshalInto(nil)
	var ws frameScratch
	// p=0: never corrupted, and the wire itself must stay untouched.
	for i := 0; i < 10; i++ {
		if corruptFrame(rng, wire, 0, &ws) {
			t.Fatal("p=0 corrupted a frame")
		}
	}
	// p=0.5: essentially always corrupted.
	hits := 0
	for i := 0; i < 50; i++ {
		if corruptFrame(rng, wire, 0.5, &ws) {
			hits++
		}
	}
	if !FrameIntact(wire) {
		t.Fatal("corruptFrame mutated the caller's wire")
	}
	if hits < 49 {
		t.Errorf("p=0.5 corrupted only %d of 50", hits)
	}
}

// TestCorruptFrameNoAllocs pins the steady state of the Table 4 hot
// path: once the scratch buffers are warm, passing a full-size frame
// through the bit-flip channel must not allocate at all.
func TestCorruptFrameNoAllocs(t *testing.T) {
	rng := mathx.NewRand(2)
	wire := Frame{Seq: 3, Payload: make([]byte, 1500)}.MarshalInto(nil)
	var ws frameScratch
	corruptFrame(rng, wire, 0.01, &ws) // warm the scratch
	avg := testing.AllocsPerRun(50, func() {
		corruptFrame(rng, wire, 0.01, &ws)
	})
	if avg != 0 {
		t.Fatalf("corruptFrame allocates %.1f per call with warm scratch", avg)
	}
}
