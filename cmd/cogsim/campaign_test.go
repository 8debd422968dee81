package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCampaignBadBudgetFailsAtParse: a campaign entry whose budget has
// a target but no trial cap, or whose kernel_params are out of range,
// fails when the spec is parsed, before the store opens or any entry
// runs.
func TestCampaignBadBudgetFailsAtParse(t *testing.T) {
	for _, bad := range []string{
		`{"id":"ext-coopber","seed":1,"quick":true,"params":{"target_ci":"0.05"}}`,
		`{"kernel":"coop.ber","kernel_params":{"mt":9},"trials":2048}`,
	} {
		dir := t.TempDir()
		specPath := filepath.Join(dir, "spec.json")
		spec := `{"name":"bad-budget","experiments":[
		{"id":"table1","seed":1,"quick":true},
		` + bad + `]}`
		if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		dataDir := filepath.Join(dir, "data")
		_, err := runCampaign(context.Background(), specPath, dataDir, 1, false)
		if err == nil || !strings.Contains(err.Error(), "experiment 1") {
			t.Fatalf("entry %s: runCampaign error = %v, want experiment 1 rejected", bad, err)
		}
		if _, err := os.Stat(dataDir); !os.IsNotExist(err) {
			t.Fatalf("entry %s: data dir exists after a spec that failed to parse (stat err %v)", bad, err)
		}
	}
}
