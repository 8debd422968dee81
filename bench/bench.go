// Package bench is the repository benchmark: four workloads that drive
// the system from outside, through its public functions only, and
// report end-to-end metrics (untraced runs) or per-layer metrics
// (traced runs). cmd/cogbench is its command line; README.md explains
// the workloads, the metrics and how to read self time.
package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/ebtable"
	"repro/internal/mathx"
	"repro/internal/obs"
)

// Workloads lists the workload names in run order.
var Workloads = []string{"paper", "tail-ber", "serve", "fanout"}

// Cell is one kernel evaluation: a registered kernel and its parameters.
type Cell struct {
	Kernel string
	Params map[string]float64
}

// Fixed sizes of the workloads; Config holds only what tests shrink.
const (
	// ebSamples is the ēb Monte-Carlo channel-draw count per (mt, mr).
	ebSamples = 20000
	// serveMissEvery places one miss in every block of this many serve
	// requests.
	serveMissEvery = 10
	// serveLatencyLimit is the p99 bound of serve_max_rps.
	serveLatencyLimit = 100 * time.Millisecond
	// fanoutID is the experiment every fanout op shards.
	fanoutID = "ext-coopber"
	// fanoutNodes is the number of worker nodes behind the coordinator.
	fanoutNodes = 2
	// ladderWorkload is the workload whose traced run times the kernel
	// and runner ladder; its output does not depend on the workload.
	ladderWorkload = "tail-ber"
)

// paperIDs are the experiments every paper op regenerates, in order.
var paperIDs = []string{"fig6a", "fig6b", "fig7", "fig8", "table1", "table2", "table3", "table4",
	"ext-coopber", "ext-multihop"}

// The ladder's cells: the chunk runner's kernel, and the kernels timed
// by direct batch calls at the workloads' parameters.
var (
	cellfreeParams = map[string]float64{"l": 25, "k": 8, "q": 0.05}
	multihopCell   = Cell{"multihop.ber.batch", map[string]float64{"hops": 3, "mt": 2, "mr": 2, "snr_db": 8}}
	coopFullParams = map[string]float64{"mt": 2, "mr": 2, "snr_db": 8, "bits": 128}

	ladderRunner  = Cell{"coop.ber.batch", map[string]float64{"mt": 2, "mr": 2, "snr_db": 10, "bits": 32}}
	ladderKernels = []Cell{
		{"coop.ber", coopFullParams},
		{"coop.ber.batch", coopFullParams},
		multihopCell,
		{"cellfree.se", cellfreeParams},
		{"cellfree.se.mmse", cellfreeParams},
	}
)

// PaperConfig sizes the paper workload.
type PaperConfig struct {
	// Grid is the ēb table every pass builds.
	Grid ebtable.Grid
	// Quick runs the experiments in quick mode (tests only).
	Quick bool
}

// TailBERConfig sizes the tail-ber workload.
type TailBERConfig struct {
	Budget adaptive.Budget
	Cells  []Cell
}

// ServeConfig sizes the serve workload.
type ServeConfig struct {
	// Rates are the open-loop request rate steps in req/s.
	Rates []float64
	// ReportRate is the step op_p50_s, op_tail_s and the hit/miss
	// latencies are taken at.
	ReportRate float64
	// HotIDs × seeds 1..HotSeeds are the cached keys hits draw from.
	HotIDs   []string
	HotSeeds int
	// MissIDs are the experiments misses cycle through, each with a
	// fresh seed.
	MissIDs []string
	// CheckEvery recomputes one miss in this many in-process.
	CheckEvery int
	// Probes is the request count of each traced-run probe phase.
	Probes int
}

// FanoutConfig sizes the fanout workload.
type FanoutConfig struct {
	// Quick runs the experiment in quick mode (tests only).
	Quick bool
}

// LadderConfig sizes the traced run's kernel and runner ladder.
type LadderConfig struct {
	// Chunks is the plan length the chunk runner is timed over.
	Chunks int
	// KernelTrials is the batch size of each direct kernel call.
	KernelTrials int
}

// Config is one benchmark run. Default gives the sizes the benchmark
// is defined at; tests shrink them.
type Config struct {
	Seed int64
	// Seconds is the length of each workload's timed phase; closed
	// loops also run at least MinOps ops (twice that when traced).
	Seconds float64
	// Trace turns on the traced run: per-layer metrics, spans and the
	// self-time table.
	Trace bool
	// SetupReps is the least number of set-ups timed for setup_s; more
	// run while they have taken under SetupMinSeconds.
	SetupReps       int
	SetupMinSeconds float64
	MinOps          int

	Paper   PaperConfig
	TailBER TailBERConfig
	Serve   ServeConfig
	Fanout  FanoutConfig
	Ladder  LadderConfig

	// Test seams that corrupt outputs on their way to the checks, and
	// that close fanout worker nodes after the registry probe.
	tamperEb   func(*ebtable.Table)
	tamperBody func([]byte) []byte
	killNodes  int
}

// Default returns the benchmark's defined sizes.
func Default(seed int64, seconds float64) Config {
	coop := func(mt, mr, snr float64) Cell {
		return Cell{"coop.ber.adaptive", map[string]float64{"mt": mt, "mr": mr, "snr_db": snr, "bits": 32}}
	}
	return Config{
		Seed:            seed,
		Seconds:         seconds,
		SetupReps:       3,
		SetupMinSeconds: 3,
		MinOps:          3,
		Paper: PaperConfig{
			Grid: ebtable.Grid{
				Ps:  []float64{0.01, 0.001},
				Bs:  []int{1, 2, 4},
				Mts: []int{1, 2, 3, 4},
				Mrs: []int{1, 2, 3, 4},
			},
		},
		TailBER: TailBERConfig{
			Budget: adaptive.Budget{TargetRelCI: 0.10, MaxTrials: 64 * 2048},
			Cells: []Cell{coop(2, 2, 5), coop(2, 2, 10), coop(1, 1, 15), multihopCell,
				{"cellfree.se.mmse", cellfreeParams}},
		},
		Serve: ServeConfig{
			// Each request holds one of the client's two connections until
			// its job finishes, so 400 req/s already keeps both ~90% busy
			// and its median swings 1-4 ms between seeds; 200 req/s is
			// the highest step that repeats.
			Rates:      []float64{100, 200, 400, 800},
			ReportRate: 200,
			HotIDs: []string{"fig6a", "fig7", "fig8", "table1", "table2", "table3",
				"ext-roc", "ext-game", "ext-conv", "ext-lifetime"},
			HotSeeds:   4,
			MissIDs:    []string{"table2", "table3", "table4", "ext-multihop"},
			CheckEvery: 20,
			Probes:     200,
		},
		Ladder: LadderConfig{Chunks: 16, KernelTrials: 2048},
	}
}

// Metric is one named measurement.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note qualifies the value, e.g. the percentile level and sample
	// count of a tail latency.
	Note string `json:"note,omitempty"`
}

// Result is one workload run.
type Result struct {
	Workload  string   `json:"workload"`
	Stamp     Stamp    `json:"stamp"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest hashes the outputs of the warm-up ops and the first MinOps
	// timed ops (serve: every response); InputDigest hashes the inputs
	// generated for them. Equal seeds give equal digests.
	Digest      string      `json:"digest"`
	InputDigest string      `json:"input_digest"`
	Metrics     []Metric    `json:"metrics"`
	Layers      []LayerTime `json:"layers,omitempty"`

	spans []span
}

// Correct reports whether every op succeeded and every check passed.
func (r *Result) Correct() bool { return r.Failed == 0 && len(r.Failures) == 0 }

// Metric returns the named metric.
func (r *Result) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

func (r *Result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unit})
}

func (r *Result) addNote(name string, v float64, unit, note string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unit, Note: note})
}

// ledger counts attempted and failed ops; an op fails at most once,
// whether an error, a bad response or a failed check caught it. Ops are
// keyed by their index (negative for warm-ups) or, for checks outside
// the op sequence, by a name.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    map[string]bool
	msgs      []string
}

func (l *ledger) attempt() {
	l.mu.Lock()
	l.attempted++
	l.mu.Unlock()
}

func (l *ledger) fail(op any, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed == nil {
		l.failed = map[string]bool{}
	}
	l.failed[fmt.Sprint(op)] = true
	if len(l.msgs) < 20 {
		l.msgs = append(l.msgs, fmt.Sprintf("op %v: %v", op, err))
	}
}

func (l *ledger) fill(r *Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.Attempted, r.Failed, r.Failures = l.attempted, len(l.failed), l.msgs
}

// digest is an ordered SHA-256 over byte strings.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(b []byte) {
	var n [8]byte
	for i := range n {
		n[i] = byte(len(b) >> (8 * i))
	}
	d.h.Write(n[:])
	d.h.Write(b)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// deriveSeed derives the seed of item i of a named input stream from
// the run seed, so every input the benchmark generates follows from
// -seed alone.
func deriveSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	state := uint64(seed) ^ h.Sum64() ^ uint64(int64(i))*0x9e3779b97f4a7c15
	return int64(mathx.SplitMix64(&state) >> 1)
}

// Run executes one workload.
func Run(ctx context.Context, cfg Config, workload string) (*Result, error) {
	switch workload {
	case "paper":
		return runClosed(ctx, cfg, workload, newPaper)
	case "tail-ber":
		return runClosed(ctx, cfg, workload, newTailBER)
	case "fanout":
		return runClosed(ctx, cfg, workload, newFanout)
	case "serve":
		return runServe(ctx, cfg)
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", workload, Workloads)
}

// mcTrials is the program's process-wide Monte-Carlo trial counter.
var mcTrials = obs.Default.Counter("cogmimod_mc_trials_total",
	"Monte-Carlo trials completed, summed over all runs.")

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
