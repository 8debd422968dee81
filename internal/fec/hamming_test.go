package fec

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := Hamming74{}
	rng := mathx.NewRand(301)
	data := make([]byte, 400)
	for i := range data {
		data[i] = byte(rng.Intn(2))
	}
	coded, err := h.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(coded) != 700 {
		t.Fatalf("%d coded bits", len(coded))
	}
	back, corrected, err := h.Decode(coded)
	if err != nil {
		t.Fatal(err)
	}
	if corrected != 0 {
		t.Errorf("clean channel corrected %d blocks", corrected)
	}
	for i := range data {
		if back[i] != data[i] {
			t.Fatalf("bit %d corrupted without noise", i)
		}
	}
}

func TestLengthValidation(t *testing.T) {
	h := Hamming74{}
	if _, err := h.Encode(make([]byte, 5)); err == nil {
		t.Error("non-multiple-of-4 should fail")
	}
	if _, _, err := h.Decode(make([]byte, 6)); err == nil {
		t.Error("non-multiple-of-7 should fail")
	}
}

// TestSingleErrorCorrection: flipping any one of the 7 positions in any
// block is always repaired.
func TestSingleErrorCorrection(t *testing.T) {
	h := Hamming74{}
	for pattern := 0; pattern < 16; pattern++ {
		data := []byte{byte(pattern & 1), byte(pattern >> 1 & 1), byte(pattern >> 2 & 1), byte(pattern >> 3 & 1)}
		coded, err := h.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < BlockCoded; pos++ {
			corrupt := append([]byte(nil), coded...)
			corrupt[pos] ^= 1
			back, corrected, err := h.Decode(corrupt)
			if err != nil {
				t.Fatal(err)
			}
			if corrected != 1 {
				t.Errorf("pattern %d pos %d: corrected %d blocks, want 1", pattern, pos, corrected)
			}
			for i := range data {
				if back[i] != data[i] {
					t.Errorf("pattern %d pos %d: data bit %d wrong", pattern, pos, i)
				}
			}
		}
	}
}

// TestDoubleErrorsMiscorrect documents the code's limit: two errors per
// block exceed the minimum distance and decode wrongly (Hamming(7,4)
// without the extra parity bit cannot detect them).
func TestDoubleErrorsMiscorrect(t *testing.T) {
	h := Hamming74{}
	data := []byte{1, 0, 1, 1}
	coded, _ := h.Encode(data)
	corrupt := append([]byte(nil), coded...)
	corrupt[0] ^= 1
	corrupt[3] ^= 1
	back, _, err := h.Decode(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range data {
		if back[i] != data[i] {
			same = false
		}
	}
	if same {
		t.Error("double error decoded correctly — minimum distance would be > 3")
	}
}

// TestFECCrossover: at moderate raw BER the code helps; at very high raw
// BER the 7/4 expansion plus miscorrection hurts — the classic coding
// crossover.
func TestFECCrossover(t *testing.T) {
	h := Hamming74{}
	rng := mathx.NewRand(302)
	run := func(p float64) (coded, uncoded float64) {
		const n = 40000
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(2))
		}
		enc, _ := h.Encode(data)
		for i := range enc {
			if rng.Float64() < p {
				enc[i] ^= 1
			}
		}
		dec, _, _ := h.Decode(enc)
		errs := 0
		for i := range data {
			if dec[i] != data[i] {
				errs++
			}
		}
		coded = float64(errs) / n
		raw := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				raw++
			}
		}
		uncoded = float64(raw) / n
		return coded, uncoded
	}
	c, u := run(0.01)
	if c >= u/2 {
		t.Errorf("at p=0.01 coding should help: coded %v vs raw %v", c, u)
	}
	c, u = run(0.4)
	if c <= u {
		t.Errorf("at p=0.4 coding should hurt: coded %v vs raw %v", c, u)
	}
}

// TestTheoreticalBlockErrorRate: the post-decoding block error
// probability is 1 - (1-p)^7 - 7p(1-p)^6; the measured rate must track it.
func TestTheoreticalBlockErrorRate(t *testing.T) {
	h := Hamming74{}
	rng := mathx.NewRand(303)
	const p = 0.03
	const blocks = 60000
	data := make([]byte, blocks*BlockData)
	for i := range data {
		data[i] = byte(rng.Intn(2))
	}
	enc, _ := h.Encode(data)
	for i := range enc {
		if rng.Float64() < p {
			enc[i] ^= 1
		}
	}
	dec, _, _ := h.Decode(enc)
	blockErrs := 0
	for blk := 0; blk < blocks; blk++ {
		for i := 0; i < BlockData; i++ {
			if dec[blk*BlockData+i] != data[blk*BlockData+i] {
				blockErrs++
				break
			}
		}
	}
	got := float64(blockErrs) / blocks
	q := 1 - p
	want := 1 - math.Pow(q, 7) - 7*p*math.Pow(q, 6)
	if math.Abs(got-want) > 0.15*want {
		t.Errorf("block error rate %v vs theory %v", got, want)
	}
}
