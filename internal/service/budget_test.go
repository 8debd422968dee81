package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/adaptive"
)

func TestBudgetFromParams(t *testing.T) {
	b, err := BudgetFromParams(map[string]string{"target_ci": "0.05", "max_trials": "100000", "min_trials": "256"})
	if err != nil {
		t.Fatal(err)
	}
	if b.TargetRelCI != 0.05 || b.MaxTrials != 100000 || b.MinTrials != 256 {
		t.Fatalf("decoded %+v", b)
	}
	// Absent params, an explicit zero target (the escape hatch on nodes
	// with a default budget) and a cap without a target all decode to
	// the zero budget: none of them enables adaptive stopping.
	for _, params := range []map[string]string{
		nil,
		{"target_ci": "0"},
		{"target_ci": "0", "max_trials": "4096"},
		{"max_trials": "4096", "min_trials": "64"},
	} {
		if b, err := BudgetFromParams(params); err != nil || b != (adaptive.Budget{}) {
			t.Errorf("params %v: %+v, %v; want the zero budget", params, b, err)
		}
	}
	for _, params := range []map[string]string{
		{"target_ci": "nope"},
		{"target_ci": "-0.1"},
		{"target_ci": "NaN", "max_trials": "100"},
		{"target_ci": "0.05"}, // a target without a cap
		{"target_ci": "0.05", "max_trials": "0"},
		{"max_trials": "x"},
		{"max_trials": "-5"},
		{"min_trials": "-1"},
		{"target_ci": "1.5", "max_trials": "100"},
		{"target_ci": "0.1", "max_trials": "10", "min_trials": "20"},
		{"target_ci": "0.2", "max_trials": "16777217"},
		{"target_ci": "0.2", "max_trials": "9223372036854775807"},
	} {
		if _, err := BudgetFromParams(params); err == nil {
			t.Errorf("params %v accepted", params)
		}
	}
}

// FuzzBudgetParams pins the budget boundary: for any params,
// BudgetFromParams either fails or returns a budget that Validate
// accepts and that survives a BudgetParams round trip unchanged.
func FuzzBudgetParams(f *testing.F) {
	f.Add("0.05", "131072", "256", uint8(7))
	f.Add("0.05", "", "", uint8(1))
	f.Add("0", "4096", "64", uint8(7))
	f.Add("1e-320", "1", "1", uint8(7))
	f.Add("Inf", "9223372036854775807", "", uint8(3))
	f.Add(" 0.1", "+5", "-0", uint8(7))
	f.Fuzz(func(t *testing.T, target, maxTrials, minTrials string, present uint8) {
		params := map[string]string{}
		for i, kv := range [][2]string{{"target_ci", target}, {"max_trials", maxTrials}, {"min_trials", minTrials}} {
			if present&(1<<i) != 0 {
				params[kv[0]] = kv[1]
			}
		}
		b, err := BudgetFromParams(params)
		if err != nil {
			return
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("params %q decoded to %+v, which Validate refuses: %v", params, b, err)
		}
		again, err := BudgetFromParams(BudgetParams(b))
		if err != nil || again != b {
			t.Fatalf("params %q: %+v round-tripped to %+v, %v", params, b, again, err)
		}
	})
}

// budgetRecorder is a runner that records the budget each run decodes.
type budgetRecorder struct {
	mu   sync.Mutex
	seen []adaptive.Budget
}

func (r *budgetRecorder) run(ctx context.Context, req Request) (string, error) {
	b, err := BudgetFromParams(req.Params)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	r.seen = append(r.seen, b)
	r.mu.Unlock()
	return req.ID + " " + req.Params["target_ci"], nil
}

func (r *budgetRecorder) last() adaptive.Budget {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[len(r.seen)-1]
}

// TestDefaultBudgetJoinsKey: a node's default budget is part of the
// request it keys. A request without budget params gets the key, the
// run and the cached result of the same request sent with the default's
// params explicitly; "target_ci":"0" keys and runs as a fixed budget.
func TestDefaultBudgetJoinsKey(t *testing.T) {
	def := adaptive.Budget{TargetRelCI: 0.1, MaxTrials: 4096, MinTrials: 64}
	rec := &budgetRecorder{}
	s := startService(t, Config{Workers: 1, Runner: rec.run, DefaultBudget: def})

	submit := func(req Request) JobView {
		t.Helper()
		jv, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return waitTerminal(t, s, jv.ID)
	}

	bare := submit(Request{ID: "x", Seed: 1})
	explicit := Request{ID: "x", Seed: 1, Params: BudgetParams(def)}
	if bare.Key != CanonicalKey(explicit) {
		t.Fatalf("defaulted key %s != explicit-budget key %s", bare.Key, CanonicalKey(explicit))
	}
	if got := rec.last(); got != def {
		t.Fatalf("defaulted run decoded %+v, want %+v", got, def)
	}
	if again := submit(explicit); again.Key != bare.Key || !again.CacheHit {
		t.Fatalf("explicit budget = %+v, want a cache hit on %s", again, bare.Key)
	}

	optOut := Request{ID: "x", Seed: 1, Params: map[string]string{"target_ci": "0"}}
	fixed := submit(optOut)
	if fixed.Key != CanonicalKey(optOut) || fixed.Key == bare.Key {
		t.Fatalf("opt-out key %s, want %s", fixed.Key, CanonicalKey(optOut))
	}
	if got := rec.last(); got.Enabled() {
		t.Fatalf("opt-out ran budget %+v, want fixed", got)
	}

	// Unrelated params ride along with the default.
	other := submit(Request{ID: "x", Seed: 1, Params: map[string]string{"foo": "bar"}})
	want := BudgetParams(def)
	want["foo"] = "bar"
	if other.Key != CanonicalKey(Request{ID: "x", Seed: 1, Params: want}) {
		t.Fatalf("unrelated param lost its default budget: %+v", other.Request)
	}
	if n := len(rec.seen); n != 3 {
		t.Fatalf("runner ran %d times, want 3 (one cache hit)", n)
	}

	// Without a default the bare request keys as it always has.
	plain := startService(t, Config{Workers: 1, Runner: rec.run})
	jv, err := plain.Submit(Request{ID: "x", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if jv.Key != CanonicalKey(Request{ID: "x", Seed: 1}) || jv.Request.Params != nil {
		t.Fatalf("no-default submit = %+v", jv)
	}
}

// TestSubmitRejectsBadBudget: a budget BudgetFromParams refuses fails
// at submission with ErrBadParams, before a job exists or a worker
// runs; so does a service configured with such a default. A cap above
// adaptive.MaxBudgetTrials is refused, not run or cached.
func TestSubmitRejectsBadBudget(t *testing.T) {
	rec := &budgetRecorder{}
	s := startService(t, Config{Workers: 1, Runner: rec.run})
	for _, params := range []map[string]string{
		{"target_ci": "0.05"},
		{"target_ci": "abc", "max_trials": "4096"},
		{"target_ci": "0.2", "max_trials": "9223372036854775807"},
	} {
		if _, err := s.Submit(Request{ID: "ext-coopber", Seed: 1, Params: params}); !errors.Is(err, ErrBadParams) {
			t.Errorf("params %v: err = %v, want ErrBadParams", params, err)
		}
	}
	if st := s.Stats(); st.Submitted != 0 || st.Failed != 0 {
		t.Fatalf("stats after rejections = %+v", st)
	}
	if _, err := New(Config{Runner: rec.run, DefaultBudget: adaptive.Budget{TargetRelCI: 0.1}}); err == nil {
		t.Fatal("New accepted a default target without a trial cap")
	}
}

// TestMaxTrialsRunsAsKeyed: two ext-coopber requests that differ only
// in max_trials have different keys, so they must also return different
// reports; each runs the budget its key names. Any max_trials above the
// quick fixed trial count (6144) shows it.
func TestMaxTrialsRunsAsKeyed(t *testing.T) {
	run := func(maxTrials string) string {
		t.Helper()
		rep, err := ExperimentRunner(context.Background(), Request{ID: "ext-coopber", Seed: 1, Quick: true,
			Params: map[string]string{"target_ci": "0.2", "max_trials": maxTrials}})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	small, large := run("6144"), run("12288")
	if small == large {
		t.Fatalf("max_trials 6144 and 12288 returned the same report:\n%s", large)
	}
	if !strings.Contains(large, "12288 trials max per cell") {
		t.Fatalf("max_trials 12288 report does not name its own cap:\n%s", large)
	}
}
