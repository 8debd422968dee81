package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

func TestIDsComplete(t *testing.T) {
	want := []string{
		"ext-adaptive", "ext-cellfree", "ext-conv", "ext-coopber", "ext-cycle", "ext-game", "ext-lifetime", "ext-multihop", "ext-roc",
		"fig6a", "fig6b", "fig7", "fig8",
		"table1", "table2", "table3", "table4",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", Options{}); err == nil {
		t.Error("unknown id should fail")
	}
}

func TestRunAllQuick(t *testing.T) {
	reps, err := RunAllCtx(context.Background(), Options{Seed: 21, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 17 {
		t.Fatalf("%d reports", len(reps))
	}
	for _, r := range reps {
		if r.ID == "" || r.Title == "" || len(r.Header) == 0 || len(r.Rows) == 0 {
			t.Errorf("report %q incomplete", r.ID)
		}
		s := r.String()
		if !strings.Contains(s, r.ID) || !strings.Contains(s, r.Header[0]) {
			t.Errorf("rendering of %q missing parts:\n%s", r.ID, s)
		}
		for _, row := range r.Rows {
			if len(row) != len(r.Header) && r.ID != "table3" {
				t.Errorf("%s: row width %d vs header %d", r.ID, len(row), len(r.Header))
			}
		}
	}
}

func TestFig6Shapes(t *testing.T) {
	a, err := Fig6a(context.Background(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig6b(context.Background(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 150..350 step 25 = 9 rows; 4 series + D1 column.
	if len(a.Rows) != 9 || len(a.Header) != 5 {
		t.Fatalf("fig6a shape %dx%d", len(a.Rows), len(a.Header))
	}
	// Distances increase down each column.
	for col := 1; col < 5; col++ {
		for i := 1; i < len(a.Rows); i++ {
			prev, _ := strconv.ParseFloat(a.Rows[i-1][col], 64)
			cur, _ := strconv.ParseFloat(a.Rows[i][col], 64)
			if cur <= prev {
				t.Errorf("fig6a col %d not increasing at row %d", col, i)
			}
		}
	}
	// Figure 6(b) distances exceed 6(a)'s (D3 = sqrt(m) D2 under
	// ConvArray).
	for i := range a.Rows {
		d2, _ := strconv.ParseFloat(a.Rows[i][2], 64) // m=3 B=20k column
		d3, _ := strconv.ParseFloat(b.Rows[i][2], 64)
		if d3 <= d2 {
			t.Errorf("row %d: D3 (%v) should exceed D2 (%v)", i, d3, d2)
		}
	}
}

func TestFig7SISODominates(t *testing.T) {
	r, err := Fig7(context.Background(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		siso, _ := strconv.ParseFloat(row[1], 64)
		for col := 2; col < len(row); col++ {
			coop, _ := strconv.ParseFloat(row[col], 64)
			if coop >= siso {
				t.Errorf("D=%s: coop col %d (%v) should be far below SISO (%v)",
					row[0], col, coop, siso)
			}
		}
	}
}

func TestRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range IDs() {
		if _, err := RunCtx(ctx, id, Options{Seed: 1, Quick: true}); err != context.Canceled {
			t.Errorf("%s: err = %v, want context.Canceled", id, err)
		}
	}
	if _, err := RunAllCtx(ctx, Options{Seed: 1, Quick: true}); err == nil {
		t.Error("RunAllCtx on cancelled ctx should fail")
	}
}

func TestDeterministicReports(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table4", "fig8"} {
		a, err := Run(id, Options{Seed: 33, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(id, Options{Seed: 33, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s not deterministic", id)
		}
	}
}
