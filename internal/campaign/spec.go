package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/sim"
)

// Spec is a campaign: a named list of experiment requests and trial
// budgets. See the package documentation for the JSON shape.
type Spec struct {
	Name string `json:"name"`
	// CheckpointChunks is how many Monte-Carlo chunks run between
	// checkpoint persists; 0 means 4. Smaller values bound the work a
	// crash can lose at the cost of more fsyncs.
	CheckpointChunks int          `json:"checkpoint_chunks,omitempty"`
	Experiments      []Experiment `json:"experiments"`
}

// Experiment is one campaign entry: exactly one of ID (a registry
// experiment) or Kernel (a raw Monte-Carlo kernel run) must be set.
type Experiment struct {
	// Name labels the entry in progress reports; defaults to the ID or
	// kernel name.
	Name string `json:"name,omitempty"`

	// Registry experiment fields, mirroring a service request.
	ID     string            `json:"id,omitempty"`
	Seed   int64             `json:"seed"`
	Quick  bool              `json:"quick,omitempty"`
	Params map[string]string `json:"params,omitempty"`

	// Raw kernel run fields. Trials is the entry's trial budget and is
	// required for kernel entries.
	Kernel       string             `json:"kernel,omitempty"`
	KernelParams map[string]float64 `json:"kernel_params,omitempty"`
	Trials       int                `json:"trials,omitempty"`
}

// request is the service request a registry entry runs as: its result
// is stored under that request's canonical key, so the entry's budget
// params both reach the run and key its result.
func (e Experiment) request() service.Request {
	return service.Request{ID: e.ID, Seed: e.Seed, Quick: e.Quick, Params: e.Params}
}

// DisplayName returns the entry's human label.
func (e Experiment) DisplayName() string {
	if e.Name != "" {
		return e.Name
	}
	if e.ID != "" {
		return e.ID
	}
	return e.Kernel
}

// ParseSpec decodes and validates a campaign spec. Unknown fields are
// rejected so a typoed budget cannot silently vanish.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("campaign: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate checks the spec against the experiment and kernel
// registries, decodes each registry entry's budget params with
// service.BudgetFromParams and builds each kernel entry's trials from
// its kernel_params (Build validates and runs no trial), so a malformed
// or unbounded budget and an out-of-range kernel parameter fail before
// any entry runs.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: spec has no name")
	}
	if len(s.Experiments) == 0 {
		return fmt.Errorf("campaign: spec %q has no experiments", s.Name)
	}
	if s.CheckpointChunks < 0 {
		return fmt.Errorf("campaign: negative checkpoint_chunks %d", s.CheckpointChunks)
	}
	knownIDs := make(map[string]bool)
	for _, id := range experiments.IDs() {
		knownIDs[id] = true
	}
	for i, e := range s.Experiments {
		switch {
		case e.ID != "" && e.Kernel != "":
			return fmt.Errorf("campaign: experiment %d sets both id %q and kernel %q", i, e.ID, e.Kernel)
		case e.ID == "" && e.Kernel == "":
			return fmt.Errorf("campaign: experiment %d sets neither id nor kernel", i)
		case e.ID != "":
			if !knownIDs[e.ID] {
				return fmt.Errorf("campaign: experiment %d: unknown id %q (have %s)",
					i, e.ID, strings.Join(experiments.IDs(), ", "))
			}
			if e.Trials != 0 {
				return fmt.Errorf("campaign: experiment %d: trials budget only applies to kernel entries", i)
			}
			if _, err := service.BudgetFromParams(e.Params); err != nil {
				return fmt.Errorf("campaign: experiment %d: %w", i, err)
			}
		default:
			k, ok := sim.LookupKernel(e.Kernel)
			if !ok {
				return fmt.Errorf("campaign: experiment %d: unknown kernel %q (have %s)",
					i, e.Kernel, strings.Join(sim.Kernels(), ", "))
			}
			if e.Trials <= 0 {
				return fmt.Errorf("campaign: experiment %d: kernel entry needs a positive trials budget", i)
			}
			if _, err := k.Build(e.KernelParams); err != nil {
				return fmt.Errorf("campaign: experiment %d: kernel %q: %w", i, e.Kernel, err)
			}
		}
	}
	return nil
}

// ID is the campaign's content address: "c" plus the first 16 hex
// digits of the SHA-256 of the spec's canonical form. Field order,
// JSON layout and map ordering never perturb it, so resubmitting the
// same spec addresses the same campaign — and its checkpoints.
func (s Spec) ID() string {
	h := sha256.New()
	fmt.Fprintf(h, "name=%s\n", s.Name)
	fmt.Fprintf(h, "ckpt=%d\n", s.CheckpointChunks)
	for i, e := range s.Experiments {
		fmt.Fprintf(h, "exp.%d.id=%s\n", i, e.ID)
		fmt.Fprintf(h, "exp.%d.seed=%d\n", i, e.Seed)
		fmt.Fprintf(h, "exp.%d.quick=%t\n", i, e.Quick)
		for _, k := range sortedKeys(e.Params) {
			fmt.Fprintf(h, "exp.%d.param.%s=%s\n", i, k, e.Params[k])
		}
		fmt.Fprintf(h, "exp.%d.kernel=%s\n", i, e.Kernel)
		for _, k := range sortedFloatKeys(e.KernelParams) {
			fmt.Fprintf(h, "exp.%d.kparam.%s=%s\n", i, k,
				strconv.FormatFloat(e.KernelParams[k], 'g', -1, 64))
		}
		fmt.Fprintf(h, "exp.%d.trials=%d\n", i, e.Trials)
	}
	return "c" + hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedFloatKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Store key layout. All campaign state lives under campaign/<id>/ so
// one prefix scan finds everything a campaign owns.
func specKey(cid string) string   { return "campaign/" + cid + "/spec" }
func stateKey(cid string) string  { return "campaign/" + cid + "/state" }
func reportKey(cid string) string { return "campaign/" + cid + "/report" }
func ckptPrefix(cid string, exp int) string {
	return fmt.Sprintf("campaign/%s/ckpt/%d/", cid, exp)
}
