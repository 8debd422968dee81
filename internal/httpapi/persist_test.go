package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
	"repro/internal/store"
)

// newPersistentTestServer is newTestServer over a durable store,
// including warming and the campaign endpoints — the full -data-dir
// boot sequence in miniature.
func newPersistentTestServer(t *testing.T, dir string, cfg service.Config) (*httptest.Server, *service.Service, *campaign.Manager) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	if cfg.Runner == nil {
		cfg.Runner = service.ExperimentRunner
		cfg.KnownIDs = service.KnownExperimentIDs()
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.WarmFromStore()
	svc.Start()
	mgr := campaign.NewManager(st, 2, cfg.Logger)
	mgr.ResumeAll()
	ts := httptest.NewServer(NewMux(svc, Config{Campaigns: mgr}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := mgr.Stop(ctx); err != nil {
			t.Errorf("campaign stop: %v", err)
		}
		if err := svc.Stop(ctx); err != nil {
			t.Errorf("Stop: %v", err)
		}
		st.Close()
	})
	return ts, svc, mgr
}

// TestRestartServesResultFromDiskAsCacheHit is the HTTP-level
// acceptance test for durability: compute a report, tear the whole
// server down, boot a fresh one over the same data dir, and the same
// request answers cached=true with identical report bytes.
func TestRestartServesResultFromDiskAsCacheHit(t *testing.T) {
	dir := t.TempDir()
	const body = `{"id":"table1","seed":5,"wait":true}`

	ts1, _, _ := newPersistentTestServer(t, dir, service.Config{Workers: 2})
	resp, first := postJSON(t, ts1.URL+"/v1/experiments", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run status = %d, body = %v", resp.StatusCode, first)
	}
	if first["state"] != "done" || first["cached"] != false {
		t.Fatalf("first response = %v", first)
	}
	report := first["report"].(string)
	if report == "" {
		t.Fatal("first response has no report")
	}
	ts1.Close() // the rest of cleanup runs at test end; close transport now

	ts2, svc2, _ := newPersistentTestServer(t, dir, service.Config{Workers: 2})
	resp, second := postJSON(t, ts2.URL+"/v1/experiments", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart run status = %d, body = %v", resp.StatusCode, second)
	}
	if second["cached"] != true {
		t.Fatalf("restarted server did not serve from disk: %v", second)
	}
	if second["report"] != report {
		t.Error("restarted report differs from the original bytes")
	}
	// Warming put the result in the LRU, so the hit was served from
	// memory; a cold key would count as a disk hit instead.
	if st := svc2.Stats(); st.CacheHits+st.CacheDiskHits != 1 {
		t.Errorf("stats after restart = hits %d, disk hits %d; want exactly one hit",
			st.CacheHits, st.CacheDiskHits)
	}
}

func TestCampaignEndpoints(t *testing.T) {
	dir := t.TempDir()
	ts, _, mgr := newPersistentTestServer(t, dir, service.Config{Workers: 2})

	spec := `{"name":"http-campaign","experiments":[{"id":"ext-conv","seed":3}]}`
	resp, body := postJSON(t, ts.URL+"/v1/campaigns", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body = %v", resp.StatusCode, body)
	}
	id, _ := body["campaign"].(string)
	if id == "" || body["started"] != true {
		t.Fatalf("submit response = %v", body)
	}

	// Resubmission is idempotent: same content address, no new run.
	resp, body = postJSON(t, ts.URL+"/v1/campaigns", spec)
	if resp.StatusCode != http.StatusOK || body["campaign"] != id || body["started"] != false {
		t.Fatalf("resubmit = %d %v", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := mgr.Wait(ctx, id); err != nil {
		t.Fatalf("waiting for campaign: %v", err)
	}

	resp, body = getJSON(t, fmt.Sprintf("%s/v1/campaigns/%s", ts.URL, id))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d", resp.StatusCode)
	}
	if body["status"] != "done" {
		t.Fatalf("campaign status = %v", body)
	}
	report, _ := body["report"].(string)
	if !strings.Contains(report, "ext-conv") {
		t.Errorf("campaign report missing experiment section:\n%s", report)
	}
	exps, _ := body["experiments"].([]any)
	if len(exps) != 1 {
		t.Fatalf("experiments = %v", body["experiments"])
	}
	if st, _ := exps[0].(map[string]any); st["status"] != "done" {
		t.Errorf("experiment status = %v", exps[0])
	}

	resp, body = getJSON(t, ts.URL+"/v1/campaigns")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	if list, _ := body["campaigns"].([]any); len(list) != 1 {
		t.Errorf("campaign list = %v", body)
	}

	if resp, _ := getJSON(t, ts.URL+"/v1/campaigns/c0000000000000000"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing campaign status = %d, want 404", resp.StatusCode)
	}

	// A campaign's registry result doubles as a service cache entry: the
	// equivalent experiment request is a hit, not a recomputation.
	resp, body = postJSON(t, ts.URL+"/v1/experiments", `{"id":"ext-conv","seed":3,"wait":true}`)
	if resp.StatusCode != http.StatusOK || body["cached"] != true {
		t.Errorf("campaign-warmed request = %d cached=%v, want a cache hit", resp.StatusCode, body["cached"])
	}
}

// TestCampaignBadBudgetRejected: a registry entry whose budget params
// are malformed or unbounded, or a kernel entry whose kernel_params are
// out of range, fails the spec with 400; nothing starts and no spec is
// persisted.
func TestCampaignBadBudgetRejected(t *testing.T) {
	dir := t.TempDir()
	ts, _, mgr := newPersistentTestServer(t, dir, service.Config{Workers: 1})
	for _, entry := range []string{
		`{"id":"ext-coopber","seed":1,"quick":true,"params":{"target_ci":"0.05"}}`,
		`{"id":"ext-coopber","seed":1,"quick":true,"params":{"target_ci":"0.05","max_trials":"lots"}}`,
		`{"kernel":"coop.ber","kernel_params":{"mt":9},"trials":2048}`,
	} {
		spec := `{"name":"bad-budget","experiments":[` + entry + `]}`
		resp, body := postJSON(t, ts.URL+"/v1/campaigns", spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("entry %s: status=%d body=%v, want 400", entry, resp.StatusCode, body)
		}
	}
	if list := mgr.List(); len(list) != 0 {
		t.Errorf("rejected specs started campaigns: %v", list)
	}
	index, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if bytes.Contains(index, []byte("campaign/")) {
		t.Errorf("rejected specs left campaign records in the store index:\n%s", index)
	}
}

func TestCampaignEndpointsWithoutStore(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/campaigns", `{"name":"x","experiments":[{"id":"fig6a","seed":1}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, body = %v; want 503 without -data-dir", resp.StatusCode, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "data-dir") {
		t.Errorf("error %q does not point at -data-dir", msg)
	}
}
