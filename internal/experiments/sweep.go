package experiments

import (
	"context"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// RowArena formats report cells into one growing backing buffer and
// slices each cell out as a substring, so a whole sweep's rows cost a
// handful of allocations instead of one per cell. Cells sliced from
// earlier snapshots stay valid when the buffer grows (growth copies;
// the old array is left untouched). Not safe for concurrent use;
// parallel sweeps keep one arena per worker.
type RowArena struct {
	sb    strings.Builder
	start int
	cells []string
	num   [40]byte
}

// NewRowArena returns an arena with capHint bytes of cell storage
// preallocated.
func NewRowArena(capHint int) *RowArena {
	a := &RowArena{}
	a.sb.Grow(capHint)
	return a
}

// BeginRow starts a fresh row expected to hold the given cell count.
func (a *RowArena) BeginRow(cells int) {
	a.cells = make([]string, 0, cells)
	a.start = a.sb.Len()
}

// Row finishes the current row and returns its cells.
func (a *RowArena) Row() []string {
	cells := a.cells
	a.cells = nil
	return cells
}

func (a *RowArena) endCell() {
	s := a.sb.String()
	a.cells = append(a.cells, s[a.start:])
	a.start = a.sb.Len()
}

// Float appends one float cell; format and prec follow
// strconv.FormatFloat, matching fmt's %.<prec><format> verbs.
func (a *RowArena) Float(v float64, format byte, prec int) {
	a.sb.Write(strconv.AppendFloat(a.num[:0], v, format, prec, 64))
	a.endCell()
}

// Int appends one integer cell.
func (a *RowArena) Int(v int64) {
	a.sb.Write(strconv.AppendInt(a.num[:0], v, 10))
	a.endCell()
}

// Bool appends one boolean cell ("true"/"false", as %v prints).
func (a *RowArena) Bool(v bool) {
	a.sb.Write(strconv.AppendBool(a.num[:0], v))
	a.endCell()
}

// sweepRows evaluates n independent sweep rows and returns them indexed
// by row. row(a, i) must format row i's cells into a; rows may run
// concurrently under the Options.Workers budget, but results always
// merge in row order and every row is driven only by its index, so any
// worker count yields bit-identical reports. Cancellation is observed
// between rows: completed rows are exactly what a serial run prints.
// Each completed row is reported to the context's progress sink;
// sweepRows declares those n row ticks itself, so drivers must not
// AddTotal for them — only for work they Add beyond the row ticks
// (Monte-Carlo kernels account their own trials). Keeping the
// declaration next to the Add preserves done <= total at every
// instant, the invariant the SSE progress stream advertises.
func sweepRows(ctx context.Context, opts Options, n, cellsPerRow int, row func(a *RowArena, i int) error) ([][]string, error) {
	progress := obs.ProgressFrom(ctx)
	progress.AddTotal(int64(n))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	arenas := make([]*RowArena, min(workers, n))
	rows := make([][]string, n)
	err := sim.Each(ctx, workers, n, func(w, i int) error {
		a := arenas[w]
		if a == nil {
			a = NewRowArena(n * cellsPerRow * 12 / len(arenas))
			arenas[w] = a
		}
		a.BeginRow(cellsPerRow)
		if err := row(a, i); err != nil {
			return err
		}
		rows[i] = a.Row()
		progress.Add(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
