package tenant

import (
	"testing"
	"time"
)

// fakeClock drives a Limiter deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestLimiter(q Quota) (*Limiter, *fakeClock) {
	l := NewLimiter(q)
	c := &fakeClock{t: time.Unix(1000, 0)}
	if l != nil {
		l.now = c.now
	}
	return l, c
}

func TestLimiterBurstThenRefill(t *testing.T) {
	l, clock := newTestLimiter(Quota{Rate: 2, Burst: 3})
	// The full burst budget is available immediately.
	for i := 0; i < 3; i++ {
		if retry, ok := l.Allow("a"); !ok {
			t.Fatalf("burst submission %d denied (retry %v)", i, retry)
		}
	}
	retry, ok := l.Allow("a")
	if ok {
		t.Fatal("4th back-to-back submission admitted past the burst budget")
	}
	// At 2 tokens/s the next token is 0.5s away.
	if retry <= 0 || retry > 500*time.Millisecond {
		t.Fatalf("retry hint = %v, want (0, 500ms]", retry)
	}
	clock.advance(retry)
	if _, ok := l.Allow("a"); !ok {
		t.Fatal("submission denied after waiting the hinted retry")
	}
	// Refill caps at the burst budget, not beyond.
	clock.advance(time.Hour)
	for i := 0; i < 3; i++ {
		if _, ok := l.Allow("a"); !ok {
			t.Fatalf("post-idle burst submission %d denied", i)
		}
	}
	if _, ok := l.Allow("a"); ok {
		t.Fatal("idle time banked more than the burst budget")
	}
}

func TestLimiterIsolatesTenants(t *testing.T) {
	l, _ := newTestLimiter(Quota{Rate: 1, Burst: 1})
	if _, ok := l.Allow("a"); !ok {
		t.Fatal("a's first submission denied")
	}
	if _, ok := l.Allow("a"); ok {
		t.Fatal("a's second immediate submission admitted")
	}
	// b's bucket is untouched by a's spending.
	if _, ok := l.Allow("b"); !ok {
		t.Fatal("b denied because a exhausted its own quota")
	}
}

func TestNilLimiterAdmitsEverything(t *testing.T) {
	var l *Limiter
	if retry, ok := l.Allow("anyone"); !ok || retry != 0 {
		t.Fatalf("nil limiter = (%v, %t)", retry, ok)
	}
	if NewLimiter(Quota{}) != nil {
		t.Fatal("NewLimiter with a disabled quota should return nil")
	}
}

func TestLimiterDefaultBurst(t *testing.T) {
	l, _ := newTestLimiter(Quota{Rate: 2.5}) // Burst 0 -> ceil(2.5) = 3
	admitted := 0
	for i := 0; i < 5; i++ {
		if _, ok := l.Allow("a"); ok {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("default burst admitted %d, want 3", admitted)
	}
}

func TestCanonicalizeIDs(t *testing.T) {
	for raw, want := range map[string]string{
		"":            DefaultID,
		"alice":       "alice",
		"team-7.prod": "team-7.prod",
		"A_B":         "A_B",
	} {
		got, err := Canonicalize(raw)
		if err != nil || got != want {
			t.Errorf("Canonicalize(%q) = (%q, %v), want %q", raw, got, err, want)
		}
	}
	for _, bad := range []string{"a b", "x/y", "héllo", "a\n", string(make([]byte, 65))} {
		if _, err := Canonicalize(bad); err == nil {
			t.Errorf("Canonicalize(%q) accepted an invalid id", bad)
		}
	}
}
