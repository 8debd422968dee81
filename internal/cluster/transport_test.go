package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sim"
)

// shardWorker serves POST /v1/shards by executing the shard locally;
// a short worker then drops one trial from every partial's count.
func shardWorker(t *testing.T, short bool) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := ExecuteShard(r.Context(), "test", 1, req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if short {
			for i := range res.Partials {
				res.Partials[i].N--
			}
		}
		json.NewEncoder(w).Encode(res)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestHTTPTransportRefusesWrongTrialCounts: partials whose N is not
// their chunk's trial count are refused, so the coordinator retries the
// shard on another worker and the merged answer stays the local one.
func TestHTTPTransportRefusesWrongTrialCounts(t *testing.T) {
	bad, good := shardWorker(t, true), shardWorker(t, false)
	run := testRun()
	req := ShardRequest{
		Kernel: run.Kernel, Params: run.Params, Seed: run.Seed,
		Trials: run.Trials, ChunkLo: 1, ChunkHi: 3, ChunkSize: sim.ChunkSize,
	}
	tr := &HTTPTransport{}
	ctx := context.Background()
	if _, err := tr.ExecShard(ctx, bad.URL, req); err == nil || !strings.Contains(err.Error(), "trials for chunk 1") {
		t.Fatalf("short partials: err = %v, want a trial-count refusal for chunk 1", err)
	}
	if _, err := tr.ExecShard(ctx, good.URL, req); err != nil {
		t.Fatalf("honest worker refused: %v", err)
	}

	want := localResult(t, run)
	reg := NewRegistry(tr, bad.URL, good.URL)
	co := NewCoordinator(tr, reg, Config{})
	got, err := distResult(ctx, co, run)
	if err != nil {
		t.Fatalf("run with a short worker: %v", err)
	}
	if got != want {
		t.Fatalf("short partials were merged:\n got %+v\nwant %+v", got, want)
	}
}
