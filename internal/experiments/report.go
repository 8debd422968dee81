// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6): Figures 6(a), 6(b), 7 and 8, and Tables 1-4.
// Each driver returns a Report — the same rows/series the paper prints —
// and a registry maps experiment IDs to drivers for the CLI and the
// benchmark harness.
package experiments

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"time"

	"repro/internal/adaptive"
	"repro/internal/obs"
)

// expDuration records driver wall-clock time by experiment ID, for
// the "which sweep is slow" question the service cannot answer from
// job totals alone (a job may be a cache hit).
var expDuration = obs.Default.HistogramVec("cogmimod_experiment_duration_seconds",
	"Driver wall-clock time by experiment ID.", "experiment", nil)

// Report is one regenerated artifact.
type Report struct {
	// ID is the registry key ("fig6a", "table2", ...).
	ID string
	// Title describes the artifact.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data cells, already formatted.
	Rows [][]string
	// Notes carry paper-vs-measured commentary.
	Notes []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options parameterise a driver run.
type Options struct {
	// Seed drives all randomness; equal seeds reproduce bit-for-bit.
	Seed int64
	// Quick shrinks workloads (fewer bits/trials) for smoke tests and
	// benchmarks; the full configuration matches the paper.
	Quick bool
	// Workers caps how many sweep rows a driver evaluates concurrently;
	// 0 means GOMAXPROCS. Rows merge in row order whatever the budget,
	// so any value yields bit-identical reports.
	Workers int
	// Budget, when enabled, lets kernel-path drivers stop each
	// Monte-Carlo cell early once its 95% CI shrinks below
	// Budget.TargetRelCI of the estimate, spending at most
	// Budget.MaxTrials. The zero Budget keeps every driver on its fixed
	// trial counts — existing goldens are untouched. Adaptive runs stay
	// deterministic for a given (seed, budget): stopping is evaluated at
	// chunk boundaries only (see internal/adaptive).
	Budget adaptive.Budget
}

// Driver regenerates one artifact. Drivers poll ctx between sweep
// points and runs — never inside one — so cancellation is prompt while
// every row that is produced matches what an uncancelled run prints.
type Driver func(ctx context.Context, opts Options) (*Report, error)

var registry = map[string]Driver{
	"fig6a":  Fig6a,
	"fig6b":  Fig6b,
	"fig7":   Fig7,
	"fig8":   Fig8,
	"table1": Table1,
	"table2": Table2,
	"table3": Table3,
	"table4": Table4,
}

// IDs lists the registered experiments in stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID.
func Run(id string, opts Options) (*Report, error) {
	return RunCtx(context.Background(), id, opts)
}

// RunCtx executes one experiment by ID under ctx; a cancelled or expired
// context aborts the driver between sweep points and surfaces ctx.Err().
// Each completed driver run is timed into the per-experiment duration
// histogram and logged at debug level through the context logger.
func RunCtx(ctx context.Context, id string, opts Options) (*Report, error) {
	d, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := d(ctx, opts)
	if err == nil {
		elapsed := time.Since(start)
		expDuration.With(id).Observe(elapsed.Seconds())
		// Gate on Enabled: slog boxes its arguments before checking the
		// level, which would put several allocations on every driver run
		// even with debug logging off.
		if lg := obs.Logger(ctx); lg.Enabled(ctx, slog.LevelDebug) {
			lg.Debug("experiment finished",
				"experiment", id, "duration", elapsed, "quick", opts.Quick)
		}
	}
	return rep, err
}

// RunAllCtx executes every experiment in ID order under ctx.
func RunAllCtx(ctx context.Context, opts Options) ([]*Report, error) {
	var out []*Report
	for _, id := range IDs() {
		r, err := RunCtx(ctx, id, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, r)
	}
	return out, nil
}
