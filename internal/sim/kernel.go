package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/mathx"
)

// TrialFunc evaluates one independent Monte-Carlo trial per seed:
// vals[i] is the value of the trial seeded with seeds[i], and the two
// slices have equal length. A trial must depend on its seed alone — not
// on which call, goroutine or neighbouring seeds it arrives with —
// because the chunk runner splits a chunk's seeds into blocks and hands
// them to whichever workers are idle. Calls may run concurrently, so a
// kernel keeps its scratch in pooled workspaces taken per call.
type TrialFunc func(seeds []int64, vals []float64)

// BatchFunc runs n Monte-Carlo trials on the given chunk stream and
// returns their streaming statistics: trial t's seed is the t-th Int63
// of rng, and the values fold in trial order. NewKernelBatch builds one
// from a kernel's TrialFunc; it is the serial form of what a chunk of
// the worker pool computes, bit for bit.
type BatchFunc func(rng *rand.Rand, n int) mathx.Running

// KernelFunc builds a TrialFunc from flat numeric parameters. Building
// must validate the parameters — the returned trials run on hot paths
// and on remote workers, so they have no error channel of their own.
// The flat map is deliberate: it is the whole cross-process contract,
// which keeps the shard wire format free of per-kernel types.
type KernelFunc func(params map[string]float64) (TrialFunc, error)

// KernelCaps advertises what a kernel supports beyond plain fixed-budget
// execution. Capabilities are discovery metadata — they never change
// what a chunk computes — and are served to clients via GET /v1/kernels
// so a caller can tell which kernels accept adaptive budgets.
type KernelCaps struct {
	// Batch marks kernels whose trials execute through a
	// structure-of-arrays batch engine rather than scalar per-symbol
	// code.
	Batch bool
	// Adaptive marks kernels whose estimator is well-defined under
	// sequential stopping, i.e. safe to run via RunAdaptiveCtx.
	Adaptive bool
	// BernoulliUnits, when non-nil, declares the kernel's estimate to be
	// a Bernoulli rate and returns how many Bernoulli units (e.g. bits)
	// one trial contributes under the given parameters. Stopping rules
	// use it to convert trial counts into unit counts for binomial
	// (Wilson / Clopper-Pearson) intervals; nil means the estimate is a
	// general mean and CLT rules apply.
	BernoulliUnits func(params map[string]float64) float64
}

// kernelEntry pairs a kernel constructor with its capabilities.
type kernelEntry struct {
	fn   KernelFunc
	caps KernelCaps
}

// kernels is the process-wide registry of named Monte-Carlo kernels.
// A kernel name is meaningful across processes: a coordinator ships
// (kernel, params, seed, trials, chunk range) and the worker rebuilds
// the identical trials from its own registry, so both binaries must
// register the same kernels (cmd/cogmimod does, via the experiments
// package's dependency on internal/simkern).
var kernels = struct {
	sync.RWMutex
	m map[string]kernelEntry
}{m: make(map[string]kernelEntry)}

// RegisterKernel adds a named kernel with no advertised capabilities;
// duplicate names panic, exactly like duplicate experiment IDs would,
// because registration happens at package init time.
func RegisterKernel(name string, k KernelFunc) {
	RegisterKernelCaps(name, k, KernelCaps{})
}

// RegisterKernelCaps adds a named kernel together with its capability
// flags. Duplicate names panic; see RegisterKernel.
func RegisterKernelCaps(name string, k KernelFunc, caps KernelCaps) {
	if name == "" || k == nil {
		panic("sim: RegisterKernel needs a name and a kernel")
	}
	kernels.Lock()
	defer kernels.Unlock()
	if _, dup := kernels.m[name]; dup {
		panic(fmt.Sprintf("sim: kernel %q registered twice", name))
	}
	kernels.m[name] = kernelEntry{fn: k, caps: caps}
}

// Kernels lists the registered kernel names in sorted order. It is the
// discovery surface both for operators (GET /v1/kernels on the daemon)
// and for error messages, so its order must be stable across processes.
func Kernels() []string {
	kernels.RLock()
	defer kernels.RUnlock()
	ids := make([]string, 0, len(kernels.m))
	for id := range kernels.m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// KernelCapsFor returns the registered capabilities of a kernel; ok is
// false for an unknown name.
func KernelCapsFor(name string) (KernelCaps, bool) {
	kernels.RLock()
	defer kernels.RUnlock()
	e, ok := kernels.m[name]
	return e.caps, ok
}

// KernelInfo is the wire form of one registry entry: the name plus its
// boolean capability flags, as served by GET /v1/kernels.
type KernelInfo struct {
	Name     string `json:"name"`
	Batch    bool   `json:"batch"`
	Adaptive bool   `json:"adaptive"`
}

// KernelInfos lists every registered kernel with its capabilities, in
// name order.
func KernelInfos() []KernelInfo {
	kernels.RLock()
	defer kernels.RUnlock()
	infos := make([]KernelInfo, 0, len(kernels.m))
	for id, e := range kernels.m {
		infos = append(infos, KernelInfo{Name: id, Batch: e.caps.Batch, Adaptive: e.caps.Adaptive})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// newKernelTrial builds the trial function of a registered kernel.
func newKernelTrial(name string, params map[string]float64) (TrialFunc, error) {
	kernels.RLock()
	e, ok := kernels.m[name]
	kernels.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sim: unknown kernel %q (have %s)", name, strings.Join(Kernels(), ", "))
	}
	return e.fn(params)
}

// NewKernelBatch builds the batch function of a registered kernel: the
// serial draw-evaluate-fold loop over its TrialFunc.
func NewKernelBatch(name string, params map[string]float64) (BatchFunc, error) {
	trial, err := newKernelTrial(name, params)
	if err != nil {
		return nil, err
	}
	return func(rng *rand.Rand, n int) mathx.Running {
		b := bufPool.Get().(*chunkBuf)
		defer bufPool.Put(b)
		var acc mathx.Running
		for n > 0 {
			m := min(n, ChunkSize)
			drawSeeds(rng, b.seeds[:m])
			trial(b.seeds[:m], b.vals[:m])
			foldInto(&acc, b.vals[:m])
			n -= m
		}
		return acc
	}, nil
}
