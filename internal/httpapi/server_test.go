package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// newTestServer spins up the full HTTP stack over a real service.
func newTestServer(t *testing.T, cfg service.Config) (*httptest.Server, *service.Service) {
	t.Helper()
	if cfg.Runner == nil {
		cfg.Runner = service.ExperimentRunner
		cfg.KnownIDs = service.KnownExperimentIDs()
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	PublishMetrics(svc)
	ts := httptest.NewServer(NewMux(svc, Config{}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.Stop(ctx); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})
	return ts, svc
}

func postJSON(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, decoded
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, decoded
}

func TestServeFig6aEndToEndWithCacheHit(t *testing.T) {
	ts, svc := newTestServer(t, service.Config{Workers: 2})

	// First request computes.
	resp, body := postJSON(t, ts.URL+"/v1/experiments",
		`{"id":"fig6a","seed":1,"quick":true,"wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %v", resp.StatusCode, body)
	}
	if body["state"] != "done" || body["cached"] != false {
		t.Fatalf("first response = %v", body)
	}
	report, _ := body["report"].(string)
	if !strings.Contains(report, "fig6a") || !strings.Contains(report, "D(Pt,Pr) m") {
		t.Fatalf("report does not look like fig6a:\n%s", report)
	}
	key, _ := body["key"].(string)
	if key == "" {
		t.Fatal("response missing cache key")
	}

	// The identical request again: same report, served from cache.
	resp2, body2 := postJSON(t, ts.URL+"/v1/experiments",
		`{"quick":true,"wait":true,"seed":1,"id":"fig6a"}`) // reordered fields on purpose
	if resp2.StatusCode != http.StatusOK || body2["cached"] != true {
		t.Fatalf("second response: status=%d body=%v", resp2.StatusCode, body2)
	}
	if body2["key"] != key {
		t.Errorf("reordered JSON produced a different key: %v vs %v", body2["key"], key)
	}
	if body2["report"] != report {
		t.Error("cached report differs from the computed one")
	}
	if st := svc.Stats(); st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want exactly one computation and one hit", st)
	}

	// The result is addressable directly by its content key.
	resp3, body3 := getJSON(t, ts.URL+"/v1/results/"+key)
	if resp3.StatusCode != http.StatusOK || body3["report"] != report {
		t.Errorf("GET /v1/results/%s: status=%d", key, resp3.StatusCode)
	}
}

func TestAsyncJobAndPolling(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/experiments", `{"id":"table1","seed":3,"quick":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	jobID, _ := body["job"].(string)
	if jobID == "" {
		t.Fatalf("no job id in %v", body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = getJSON(t, ts.URL+"/v1/jobs/"+jobID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d", resp.StatusCode)
		}
		if state, _ := body["state"].(string); state == "done" {
			break
		} else if state == "failed" || state == "canceled" {
			t.Fatalf("job ended %s: %v", state, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if report, _ := body["report"].(string); !strings.Contains(report, "table1") {
		t.Errorf("polled report missing table1:\n%v", body["report"])
	}
}

func TestCancelReleasesWorkerWithoutCorruptingCache(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	runner := func(ctx context.Context, req service.Request) (string, error) {
		if req.ID == "fig7" { // stand-in for a long sweep
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-release:
			}
		}
		return service.ExperimentRunner(ctx, service.Request{ID: "fig6a", Seed: req.Seed, Quick: true})
	}
	ts, svc := newTestServer(t, service.Config{
		Workers:  1,
		Runner:   runner,
		KnownIDs: service.KnownExperimentIDs(),
	})

	// Pin the only worker on a slow job.
	resp, body := postJSON(t, ts.URL+"/v1/experiments", `{"id":"fig7","seed":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	jobID, _ := body["job"].(string)
	<-started

	// Cancel it over HTTP.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jobID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", delResp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body = getJSON(t, ts.URL+"/v1/jobs/"+jobID)
		if body["state"] == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %v after cancel", body["state"])
		}
		time.Sleep(5 * time.Millisecond)
	}

	// No partial result leaked into the cache under the cancelled key.
	key, _ := body["key"].(string)
	if resp, err := http.Get(ts.URL + "/v1/results/" + key); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancelled job left a result: status %d", resp.StatusCode)
	}

	// The worker must be free again: a fresh quick job completes.
	resp2, body2 := postJSON(t, ts.URL+"/v1/experiments", `{"id":"fig6a","seed":2,"quick":true,"wait":true}`)
	if resp2.StatusCode != http.StatusOK || body2["state"] != "done" {
		t.Fatalf("post-cancel job: status=%d body=%v", resp2.StatusCode, body2)
	}
	if st := svc.Stats(); st.Canceled != 1 || st.Done != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQueueSaturationReturns429(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	runner := func(ctx context.Context, req service.Request) (string, error) {
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-release:
			return "r", nil
		}
	}
	ts, _ := newTestServer(t, service.Config{Workers: 1, QueueDepth: 1, Runner: runner})

	// One running + one queued fills the system; submissions use
	// distinct seeds so the cache cannot absorb them.
	saw429 := false
	var retryAfter string
	for i := 0; i < 8 && !saw429; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/experiments", fmt.Sprintf(`{"id":"x","seed":%d}`, i))
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			retryAfter = resp.Header.Get("Retry-After")
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	if !saw429 {
		t.Fatal("queue never saturated into a 429")
	}
	if retryAfter == "" {
		t.Error("429 missing Retry-After header")
	}
}

func TestValidationAndHealth(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})

	resp, body := postJSON(t, ts.URL+"/v1/experiments", `{"id":"fig99","wait":true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown id: status=%d body=%v", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/experiments", `{"wait":true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing id: status=%d", resp.StatusCode)
	}

	resp, body = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz: status=%d body=%v", resp.StatusCode, body)
	}

	resp, body = getJSON(t, ts.URL+"/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status=%d", resp.StatusCode)
	}
	if ids, _ := body["experiments"].([]any); len(ids) != 17 {
		t.Errorf("experiment list = %v", body["experiments"])
	}

	resp, body = getJSON(t, ts.URL+"/v1/kernels")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kernels: status=%d", resp.StatusCode)
	}
	// One name per physics: the legacy batch/adaptive aliases resolve
	// but are not listed.
	if got, want := fmt.Sprint(body["kernels"]), "[cellfree.se cellfree.se.mmse coop.ber multihop.ber]"; got != want {
		t.Errorf("GET /v1/kernels = %s, want %s", got, want)
	}

	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Errorf("metrics: status=%d", httpResp.StatusCode)
	}

	resp, body = getJSON(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK || body["queue_capacity"] == nil {
		t.Errorf("stats: status=%d body=%v", resp.StatusCode, body)
	}

	if missing, _ := http.Get(ts.URL + "/v1/jobs/j99999999"); missing.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status=%d", missing.StatusCode)
	}
	if missing, _ := http.Get(ts.URL + "/v1/results/deadbeef"); missing.StatusCode != http.StatusNotFound {
		t.Errorf("missing result: status=%d", missing.StatusCode)
	}
}

func TestWaitingClientDisconnectCancelsJob(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	runner := func(ctx context.Context, req service.Request) (string, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-release:
			return "r", nil
		}
	}
	ts, svc := newTestServer(t, service.Config{Workers: 1, Runner: runner})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/experiments",
		bytes.NewReader([]byte(`{"id":"x","seed":1,"wait":true}`)))
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()
	<-started
	cancel() // client gives up
	if err := <-errCh; err == nil {
		t.Fatal("request should have failed after client cancel")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := svc.Stats(); st.Canceled == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not cancelled after client disconnect: %+v", svc.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
