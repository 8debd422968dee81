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

// Kernel is one registry entry: the trial constructor of one physics
// plus what a stopping rule needs to know about its estimate. The
// registry holds one entry per physics, never one per execution
// strategy — every name that reaches an entry runs the same trials
// under the same stopping rule.
type Kernel struct {
	// Build makes the trials from flat parameters.
	Build KernelFunc
	// BernoulliUnits, when non-nil, declares the kernel's estimate to be
	// a Bernoulli rate and returns how many Bernoulli units (e.g. bits)
	// one trial contributes under the given parameters. Stopping rules
	// use it to convert trial counts into unit counts for binomial
	// (Wilson / Clopper-Pearson) intervals; nil means the estimate is a
	// general mean and CLT rules apply.
	BernoulliUnits func(params map[string]float64) float64
	// Aliases are legacy names that resolve to this entry wherever a
	// kernel name is accepted (runs, shard requests, campaign specs,
	// LookupKernel). Kernels does not list them.
	Aliases []string
}

// kernels is the process-wide registry of named Monte-Carlo kernels,
// keyed by physics name and by alias. A kernel name is meaningful
// across processes: a coordinator ships (kernel, params, seed, trials,
// chunk range) and the worker rebuilds the identical trials from its
// own registry, so both binaries must register the same kernels
// (cmd/cogmimod does, via the experiments package's dependency on
// internal/simkern).
var kernels = struct {
	sync.RWMutex
	m     map[string]Kernel
	names []string // physics names, sorted
}{m: make(map[string]Kernel)}

// RegisterKernel adds a physics under its name and aliases. Duplicate
// names panic, exactly like duplicate experiment IDs would, because
// registration happens at package init time.
func RegisterKernel(name string, k Kernel) {
	if name == "" || k.Build == nil {
		panic("sim: RegisterKernel needs a name and a kernel")
	}
	all := append([]string{name}, k.Aliases...)
	kernels.Lock()
	defer kernels.Unlock()
	for _, n := range all {
		if _, dup := kernels.m[n]; dup || n == "" {
			panic(fmt.Sprintf("sim: kernel %q registered twice", n))
		}
	}
	for _, n := range all {
		kernels.m[n] = k
	}
	kernels.names = append(kernels.names, name)
	sort.Strings(kernels.names)
}

// Kernels lists the registered physics names in sorted order, without
// aliases. It is the discovery surface both for operators (GET
// /v1/kernels on the daemon) and for error messages, so its order must
// be stable across processes.
func Kernels() []string {
	kernels.RLock()
	defer kernels.RUnlock()
	return append([]string(nil), kernels.names...)
}

// LookupKernel returns the entry a kernel name or alias resolves to;
// ok is false for an unknown name.
func LookupKernel(name string) (Kernel, bool) {
	kernels.RLock()
	defer kernels.RUnlock()
	k, ok := kernels.m[name]
	return k, ok
}

// newKernelTrial builds the trial function of a registered kernel.
func newKernelTrial(name string, params map[string]float64) (TrialFunc, error) {
	k, ok := LookupKernel(name)
	if !ok {
		return nil, fmt.Errorf("sim: unknown kernel %q (have %s)", name, strings.Join(Kernels(), ", "))
	}
	return k.Build(params)
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
