package ebtable

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/sim"
)

// Solver produces ēb values; Analytic, MonteCarlo and Table itself all
// satisfy it (and, structurally, energy.EbProvider).
type Solver interface {
	EbBar(p float64, b, mt, mr int) (float64, error)
}

// Grid declares the axes a Table is built over — the "set of p, b, mt,
// and mr" of the preprocessing steps in Algorithms 1 and 2.
type Grid struct {
	Ps       []float64
	Bs       []int
	Mts, Mrs []int
}

// DefaultGrid covers the paper's sweeps: BER from 0.1 to 0.0005,
// b in 1..16, and 1..4 cooperating nodes per side.
func DefaultGrid() Grid {
	return Grid{
		Ps:  []float64{0.1, 0.05, 0.01, 0.005, 0.001, 0.0005},
		Bs:  []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Mts: []int{1, 2, 3, 4},
		Mrs: []int{1, 2, 3, 4},
	}
}

// Validate reports an empty or malformed axis.
func (g Grid) Validate() error {
	if len(g.Ps) == 0 || len(g.Bs) == 0 || len(g.Mts) == 0 || len(g.Mrs) == 0 {
		return fmt.Errorf("ebtable: grid has an empty axis")
	}
	for _, p := range g.Ps {
		if p <= 0 || p >= 1 {
			return fmt.Errorf("ebtable: grid BER %g outside (0, 1)", p)
		}
	}
	return nil
}

// Key identifies one table cell. P is indexed, the rest are literal.
type Key struct {
	PIdx, B, Mt, Mr int
}

// Table is the precomputed ēb lookup loaded into every SU node. Cells
// whose BER target is unreachable for their constellation are absent.
type Table struct {
	Grid Grid
	Vals map[Key]float64
}

// Build fills a table over grid using solver, parallelising across
// cells. A cell whose target is unreachable (saturation) is skipped;
// any other solver failure aborts the build.
func Build(solver Solver, grid Grid) (*Table, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	type cell struct {
		key Key
		p   float64
	}
	var cells []cell
	for pi, p := range grid.Ps {
		for _, b := range grid.Bs {
			if p >= saturationBER(b) {
				continue // unreachable by construction; skip silently
			}
			for _, mt := range grid.Mts {
				for _, mr := range grid.Mrs {
					cells = append(cells, cell{Key{pi, b, mt, mr}, p})
				}
			}
		}
	}
	vals := make([]float64, len(cells))
	err := sim.Each(context.Background(), 0, len(cells), func(_, i int) error {
		c := cells[i]
		v, err := solver.EbBar(c.p, c.key.B, c.key.Mt, c.key.Mr)
		if err != nil {
			return fmt.Errorf("ebtable: building cell %+v: %w", c.key, err)
		}
		vals[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{Grid: grid, Vals: make(map[Key]float64, len(cells))}
	for i, c := range cells {
		t.Vals[c.key] = vals[i]
	}
	return t, nil
}

// EbBar looks ēb up, matching p to the nearest grid point within 1%
// relative tolerance. It implements energy.EbProvider, so a loaded table
// is a drop-in replacement for a live solver.
func (t *Table) EbBar(p float64, b, mt, mr int) (float64, error) {
	pi := -1
	for i, gp := range t.Grid.Ps {
		if math.Abs(gp-p) <= 0.01*gp {
			pi = i
			break
		}
	}
	if pi < 0 {
		return 0, fmt.Errorf("ebtable: BER %g not on the table grid %v", p, t.Grid.Ps)
	}
	v, ok := t.Vals[Key{pi, b, mt, mr}]
	if !ok {
		return 0, fmt.Errorf("ebtable: no cell for p=%g b=%d %dx%d (unreachable or off-grid)", p, b, mt, mr)
	}
	return v, nil
}

// Len returns the number of populated cells.
func (t *Table) Len() int { return len(t.Vals) }

// MinOverB returns the constellation with the smallest ēb for the given
// (p, mt, mr) — the "determine constellation size b which minimizes ēb"
// step the SU nodes run against the loaded table.
func (t *Table) MinOverB(p float64, mt, mr int) (b int, eb float64, err error) {
	bestB, bestEb := -1, math.Inf(1)
	for _, bb := range t.Grid.Bs {
		v, lerr := t.EbBar(p, bb, mt, mr)
		if lerr != nil {
			continue
		}
		if v < bestEb {
			bestB, bestEb = bb, v
		}
	}
	if bestB < 0 {
		return 0, 0, fmt.Errorf("ebtable: no feasible b for p=%g %dx%d", p, mt, mr)
	}
	return bestB, bestEb, nil
}

// gobTable mirrors Table with a flat cell list, since gob cannot encode
// struct-keyed maps deterministically enough for our golden tests.
type gobTable struct {
	Grid  Grid
	Cells []gobCell
}

type gobCell struct {
	Key Key
	Val float64
}

// Save writes the table in gob encoding.
func (t *Table) Save(w io.Writer) error {
	cells := make([]gobCell, 0, len(t.Vals))
	for k, v := range t.Vals {
		cells = append(cells, gobCell{k, v})
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i].Key, cells[j].Key
		if a.PIdx != b.PIdx {
			return a.PIdx < b.PIdx
		}
		if a.B != b.B {
			return a.B < b.B
		}
		if a.Mt != b.Mt {
			return a.Mt < b.Mt
		}
		return a.Mr < b.Mr
	})
	return gob.NewEncoder(w).Encode(gobTable{Grid: t.Grid, Cells: cells})
}

// Load reads a table written by Save.
func Load(r io.Reader) (*Table, error) {
	var gt gobTable
	if err := gob.NewDecoder(r).Decode(&gt); err != nil {
		return nil, fmt.Errorf("ebtable: decoding table: %w", err)
	}
	t := &Table{Grid: gt.Grid, Vals: make(map[Key]float64, len(gt.Cells))}
	for _, c := range gt.Cells {
		t.Vals[c.Key] = c.Val
	}
	return t, nil
}

// SaveFile writes the table to path.
func (t *Table) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a table from path.
func LoadFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
