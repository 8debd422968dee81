package service

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// FuzzCanonicalKey pins the content-address invariant behind the result
// cache: the key depends only on the request's meaning, never on how
// its JSON was laid out. Two documents with the same fields in
// different orders, arbitrary whitespace, and params in any sequence
// must decode to requests with identical keys — and a request with a
// different seed must not collide.
func FuzzCanonicalKey(f *testing.F) {
	f.Add("fig6a", int64(1), true, "snr", "10", "bits", "64", " ")
	f.Add("table2", int64(-42), false, "a", "", "b", "x y", "\n\t ")
	f.Add("ext-coopber", int64(0), true, "k", "v", "k2", "v2", "  \t")
	f.Fuzz(func(t *testing.T, id string, seed int64, quick bool, p1k, p1v, p2k, p2v, ws string) {
		// JSON strings come from json.Marshal, so any input is legal;
		// only the whitespace filler must actually be whitespace.
		ws = sanitizeWS(ws)
		q := func(s string) string {
			b, _ := json.Marshal(s)
			return string(b)
		}
		if q(p1k) == q(p2k) {
			// Duplicate JSON object keys are last-one-wins: reordering
			// them legitimately changes the decoded request. Compare the
			// marshaled forms — distinct raw strings can collide after
			// invalid UTF-8 is sanitized to U+FFFD.
			p2v = p1v
		}
		seedJSON, _ := json.Marshal(seed)
		quickJSON, _ := json.Marshal(quick)

		docA := `{"id":` + q(id) + `,"seed":` + string(seedJSON) + `,"quick":` + string(quickJSON) +
			`,"params":{` + q(p1k) + `:` + q(p1v) + `,` + q(p2k) + `:` + q(p2v) + `}}`
		// Same request: reversed field order, reversed params, noisy
		// whitespace everywhere JSON allows it.
		docB := "{" + ws + `"params"` + ws + ":" + ws + "{" + ws + q(p2k) + ws + ":" + ws + q(p2v) +
			ws + "," + ws + q(p1k) + ws + ":" + ws + q(p1v) + ws + "}" + ws +
			"," + ws + `"quick"` + ws + ":" + ws + string(quickJSON) +
			"," + ws + `"seed"` + ws + ":" + ws + string(seedJSON) +
			"," + ws + `"id"` + ws + ":" + ws + q(id) + ws + "}"

		var a, b Request
		if err := json.Unmarshal([]byte(docA), &a); err != nil {
			t.Fatalf("docA did not parse: %v\n%s", err, docA)
		}
		if err := json.Unmarshal([]byte(docB), &b); err != nil {
			t.Fatalf("docB did not parse: %v\n%s", err, docB)
		}
		ka, kb := CanonicalKey(a), CanonicalKey(b)
		if ka != kb {
			t.Errorf("layout changed the key:\n%s -> %s\n%s -> %s", docA, ka, docB, kb)
		}

		// Sensitivity: the key must track meaning, not just ignore form.
		c := a
		c.Seed = a.Seed + 1
		if CanonicalKey(c) == ka {
			t.Errorf("seed change did not change the key (seed %d)", a.Seed)
		}

		// Numeric canonicalization: respelling an integer-valued param as
		// a decimal, with whitespace padding, must not change the key.
		// Restricted to float64's exact-integer range — the ".0" spelling
		// goes through the float path, so beyond 2^53 the two spellings
		// legitimately diverge.
		respelled := Request{ID: a.ID, Seed: a.Seed, Quick: a.Quick,
			Params: make(map[string]string, len(a.Params))}
		changed := false
		for k, v := range a.Params {
			if i, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err == nil &&
				i > -(1<<53) && i < 1<<53 {
				respelled.Params[k] = "  " + strconv.FormatInt(i, 10) + ".0\t"
				changed = true
			} else {
				respelled.Params[k] = v
			}
		}
		if changed && CanonicalKey(respelled) != ka {
			t.Errorf("numeric respelling changed the key: %v vs %v", a.Params, respelled.Params)
		}
	})
}

// sanitizeWS maps arbitrary fuzz bytes onto legal JSON whitespace.
func sanitizeWS(s string) string {
	if s == "" {
		return ""
	}
	var b strings.Builder
	for _, r := range s {
		switch r % 4 {
		case 0:
			b.WriteByte(' ')
		case 1:
			b.WriteByte('\t')
		case 2:
			b.WriteByte('\n')
		case 3:
			b.WriteByte('\r')
		}
	}
	return b.String()
}

// TestCanonicalKeyParamOrderIrrelevant is the deterministic companion
// of the fuzz target, kept for plain `go test` runs.
func TestCanonicalKeyParamOrderIrrelevant(t *testing.T) {
	a := Request{ID: "fig7", Seed: 3, Quick: true, Params: map[string]string{"x": "1", "y": "2", "z": "3"}}
	b := Request{Params: map[string]string{"z": "3", "y": "2", "x": "1"}, Quick: true, Seed: 3, ID: "fig7"}
	if CanonicalKey(a) != CanonicalKey(b) {
		t.Fatal("param construction order changed the key")
	}
}

// TestCanonicalParamValueSpellings pins the numeric normalization:
// every spelling of one number shares a key, different numbers and
// non-numbers do not.
func TestCanonicalParamValueSpellings(t *testing.T) {
	key := func(v string) Key {
		return CanonicalKey(Request{ID: "fig7", Seed: 1, Params: map[string]string{"snr": v}})
	}
	base := key("10")
	for _, same := range []string{"10.0", " 10 ", "1e1", "+10", "10.000", "\t1.0e1\n", "0010"} {
		if key(same) != base {
			t.Errorf("spelling %q does not share a key with \"10\"", same)
		}
	}
	for _, diff := range []string{"10.5", "-10", "11", "1e10", "ten", "", "10x"} {
		if key(diff) == base {
			t.Errorf("value %q collided with \"10\"", diff)
		}
	}
	// Non-numeric values are trimmed but otherwise preserved.
	if key(" v1 ") != key("v1") {
		t.Error("whitespace around a text value changed the key")
	}
	if key("v1") == key("v2") {
		t.Error("distinct text values collided")
	}
	// NaN and infinities fall through to the text path, distinct from
	// each other and from real numbers.
	if key("NaN") == key("Inf") || key("NaN") == base {
		t.Error("NaN collapsed onto another value")
	}
	// Integers beyond float64 precision keep exact identity via the
	// int64/uint64 paths.
	big, bigger := "9007199254740993", "9007199254740994" // 2^53+1, 2^53+2
	if key(big) == key(bigger) {
		t.Error("adjacent big integers collided")
	}
	if key("18446744073709551615") == key("18446744073709551614") {
		t.Error("adjacent uint64 values collided")
	}
}
