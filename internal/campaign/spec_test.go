package campaign

import (
	"strings"
	"testing"
)

func TestParseSpecValidation(t *testing.T) {
	cases := []struct {
		name, json, wantErr string
	}{
		{"no name", `{"experiments":[{"id":"fig6a","seed":1}]}`, "no name"},
		{"no experiments", `{"name":"x"}`, "no experiments"},
		{"unknown field", `{"name":"x","experimets":[]}`, "unknown field"},
		{"unknown id", `{"name":"x","experiments":[{"id":"fig99","seed":1}]}`, "unknown id"},
		{"unknown kernel", `{"name":"x","experiments":[{"kernel":"nope.ber","seed":1,"trials":100}]}`, "unknown kernel"},
		{"both id and kernel", `{"name":"x","experiments":[{"id":"fig6a","kernel":"coop.ber","seed":1}]}`, "both id"},
		{"neither", `{"name":"x","experiments":[{"seed":1}]}`, "neither id nor kernel"},
		{"kernel without trials", `{"name":"x","experiments":[{"kernel":"coop.ber","seed":1}]}`, "trials budget"},
		{"trials on registry entry", `{"name":"x","experiments":[{"id":"fig6a","seed":1,"trials":5}]}`, "only applies to kernel"},
		{"negative checkpoint interval", `{"name":"x","checkpoint_chunks":-1,"experiments":[{"id":"fig6a","seed":1}]}`, "checkpoint_chunks"},
		{"unbounded budget", `{"name":"x","experiments":[{"id":"ext-coopber","seed":1,"params":{"target_ci":"0.05"}}]}`, "max trials"},
		{"malformed budget", `{"name":"x","experiments":[{"id":"ext-coopber","seed":1,"params":{"target_ci":"tight","max_trials":"4096"}}]}`, "bad target_ci"},
		{"kernel param out of range", `{"name":"x","experiments":[{"kernel":"coop.ber","kernel_params":{"mt":9},"trials":2048}]}`, "experiment 0: kernel \"coop.ber\""},
		{"kernel bits over bound", `{"name":"x","experiments":[{"kernel":"coop.ber","kernel_params":{"bits":1e9},"trials":2048}]}`, "experiment 0: kernel \"coop.ber\""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(c.json))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("ParseSpec error = %v, want mention of %q", err, c.wantErr)
			}
		})
	}

	good := `{"name":"ok","experiments":[
		{"id":"fig6a","seed":1,"quick":true},
		{"id":"ext-coopber","seed":1,"quick":true,"params":{"target_ci":"0.5","max_trials":"6144"}},
		{"kernel":"coop.ber","seed":2,"kernel_params":{"mt":2,"mr":2,"snr_db":8,"bits":16},"trials":4096},
		{"kernel":"multihop.ber.batch","seed":3,"trials":4096}]}`
	spec, err := ParseSpec([]byte(good))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if len(spec.Experiments) != 4 {
		t.Fatalf("parsed %d experiments, want 4", len(spec.Experiments))
	}
}

func TestSpecIDContentAddressed(t *testing.T) {
	a := Spec{Name: "x", Experiments: []Experiment{{
		Kernel: "coop.ber", Seed: 1, Trials: 4096,
		KernelParams: map[string]float64{"mt": 2, "mr": 2, "snr_db": 8, "bits": 16},
	}}}
	b := Spec{Name: "x", Experiments: []Experiment{{
		Kernel: "coop.ber", Seed: 1, Trials: 4096,
		KernelParams: map[string]float64{"bits": 16, "snr_db": 8, "mr": 2, "mt": 2},
	}}}
	if a.ID() != b.ID() {
		t.Error("map ordering perturbed the campaign ID")
	}
	if !strings.HasPrefix(a.ID(), "c") || len(a.ID()) != 17 {
		t.Errorf("ID %q has unexpected shape", a.ID())
	}
	c := a
	c.Experiments = []Experiment{{Kernel: "coop.ber", Seed: 2, Trials: 4096,
		KernelParams: a.Experiments[0].KernelParams}}
	if a.ID() == c.ID() {
		t.Error("different seeds collapsed onto one campaign ID")
	}
	d := a
	d.Name = "y"
	if a.ID() == d.ID() {
		t.Error("different names collapsed onto one campaign ID")
	}
}

func TestDisplayName(t *testing.T) {
	if got := (Experiment{Name: "custom", ID: "fig6a"}).DisplayName(); got != "custom" {
		t.Errorf("DisplayName = %q, want custom", got)
	}
	if got := (Experiment{ID: "fig6a"}).DisplayName(); got != "fig6a" {
		t.Errorf("DisplayName = %q, want fig6a", got)
	}
	if got := (Experiment{Kernel: "coop.ber"}).DisplayName(); got != "coop.ber" {
		t.Errorf("DisplayName = %q, want coop.ber", got)
	}
}
