package sim

import "fmt"

// PlanTrace is the realized chunk plan of an adaptive run: which chunk
// prefix of the MaxTrials budget actually executed, round by round. It
// is the replay contract — a trace plus the original (kernel, params,
// seed) reproduces the adaptive result bit-identically, because chunk
// seeds are prefix-stable and the fold order is the chunk order. Traces
// travel inside results and campaign checkpoints, so the encoding is
// part of the persistence format.
type PlanTrace struct {
	// ChunkSize pins the chunk decomposition the trace was recorded
	// under; replay on a binary with a different ChunkSize must refuse.
	ChunkSize int `json:"chunk_size"`
	// MaxTrials is the budget the adaptive run was allowed to spend.
	// Replay derives the chunk plan from it, so chunk seeds and lengths
	// match the adaptive run exactly.
	MaxTrials int `json:"max_trials"`
	// Trials is the realized spend: the trials covered by the executed
	// chunk prefix.
	Trials int `json:"trials"`
	// Stopped records whether the stopping rule fired (as opposed to
	// the budget running out first).
	Stopped bool `json:"stopped"`
	// Rounds holds the cumulative chunk count after each stopping-rule
	// evaluation; the last entry is the executed prefix length.
	Rounds []int `json:"rounds"`
}

// Chunks returns the executed chunk-prefix length.
func (t PlanTrace) Chunks() int {
	if len(t.Rounds) == 0 {
		return 0
	}
	return t.Rounds[len(t.Rounds)-1]
}

// Saved returns how many budgeted trials the run did not spend.
func (t PlanTrace) Saved() int { return t.MaxTrials - t.Trials }

// realizedTrials maps an executed chunk-prefix length back to trials
// under the budget's plan: every prefix chunk is full except possibly
// the budget's own final chunk. A prefix short of the budget's plan
// holds fewer than maxTrials trials, so its product cannot overflow.
func realizedTrials(maxTrials, chunks int) int {
	if chunks < (Plan{Trials: maxTrials}).Chunks() {
		return chunks * ChunkSize
	}
	return maxTrials
}

// Validate checks the trace's internal consistency and its
// compatibility with this binary's chunk decomposition. A trace that
// fails validation must never be replayed — it would silently produce
// different statistics.
func (t PlanTrace) Validate() error {
	if t.ChunkSize != ChunkSize {
		return fmt.Errorf("sim: trace chunk size %d, this binary uses %d", t.ChunkSize, ChunkSize)
	}
	if t.MaxTrials <= 0 {
		return fmt.Errorf("sim: trace budget %d trials", t.MaxTrials)
	}
	if len(t.Rounds) == 0 {
		return fmt.Errorf("sim: trace has no rounds")
	}
	prev := 0
	for i, r := range t.Rounds {
		if r <= prev {
			return fmt.Errorf("sim: trace round %d ends at chunk %d, not after previous end %d", i, r, prev)
		}
		prev = r
	}
	budgetChunks := Plan{Trials: t.MaxTrials}.Chunks()
	if prev > budgetChunks {
		return fmt.Errorf("sim: trace covers %d chunks, budget plan has only %d", prev, budgetChunks)
	}
	if want := realizedTrials(t.MaxTrials, prev); t.Trials != want {
		return fmt.Errorf("sim: trace records %d trials, %d chunks cover %d", t.Trials, prev, want)
	}
	return nil
}
