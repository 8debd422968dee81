package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
)

// newTracedClusterServer wires the full distributed stack the way main
// does in coordinator mode — loopback transport, 3 workers, tracing on —
// and returns the server plus the loopback for failure injection.
func newTracedClusterServer(t *testing.T, rec *obs.TraceRecorder) (*httptest.Server, *cluster.Loopback) {
	t.Helper()
	lb := cluster.NewLoopback("w1", "w2", "w3")
	reg := cluster.NewRegistry(lb, "w1", "w2", "w3")
	co := cluster.NewCoordinator(lb, reg, cluster.Config{})
	svc, err := service.New(service.Config{
		Workers:  2,
		Recorder: rec,
		Runner: func(jctx context.Context, req service.Request) (string, error) {
			return service.ExperimentRunner(sim.WithExecutor(jctx, co), req)
		},
		KnownIDs: service.KnownExperimentIDs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	ts := httptest.NewServer(NewMux(svc, Config{Recorder: rec}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Stop(ctx)
	})
	return ts, lb
}

// fetchTrace polls GET /v1/traces/{id} until the trace holds a span
// with each of the wanted names (the http.request root only lands in
// the recorder after the response has been written, so one fetch can
// race the middleware).
func fetchTrace(t *testing.T, base, id string, want ...string) obs.Trace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var tr obs.Trace
	for {
		resp, err := http.Get(base + "/v1/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		ok := resp.StatusCode == http.StatusOK
		if ok {
			if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
				t.Fatalf("decoding trace: %v", err)
			}
		}
		resp.Body.Close()
		if ok {
			have := map[string]bool{}
			for _, sd := range tr.Spans {
				have[sd.Name] = true
			}
			missing := false
			for _, w := range want {
				if !have[w] {
					missing = true
				}
			}
			if !missing {
				return tr
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never complete: %d spans recorded", id, len(tr.Spans))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTraceEndpointMergedDistributedTimeline is the acceptance run from
// the issue: a distributed job over 3 loopback workers with one induced
// transient failure must yield, via GET /v1/traces/{id}, one merged
// timeline from HTTP arrival through per-worker shard execution to the
// fold — including the retry evidence — while the report stays
// byte-identical to the serial golden snapshot, and the Chrome export of
// that trace must be valid JSON.
func TestTraceEndpointMergedDistributedTimeline(t *testing.T) {
	rec := obs.NewTraceRecorder(16, 8192)
	ts, lb := newTracedClusterServer(t, rec)
	lb.Node("w1").FailNext(1) // one transient failure → retry + worker_dead

	body := `{"id":"ext-coopber","seed":1,"quick":true,"wait":true}`
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json",
		bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d, want 200", resp.StatusCode)
	}
	tid := resp.Header.Get("X-Trace-Id")
	if tid == "" {
		t.Fatal("no X-Trace-Id on response")
	}
	if jr.TraceID != tid {
		t.Fatalf("job view trace id %q != header %q", jr.TraceID, tid)
	}
	// Recording spans across the retried distributed run must not
	// perturb the simulation: the report is the serial golden snapshot.
	want, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "golden", "ext-coopber_quick_seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if jr.Report != string(want) {
		t.Fatalf("traced distributed report differs from serial golden\n--- got ---\n%s--- want ---\n%s", jr.Report, want)
	}

	tr := fetchTrace(t, ts.URL, tid,
		"http.request", "job.run", "queue.wait", "driver.run",
		"cluster.run", "cluster.shard", "shard.execute", "mc.fold")

	byName := map[string][]obs.SpanData{}
	byID := map[string]obs.SpanData{}
	for _, sd := range tr.Spans {
		byName[sd.Name] = append(byName[sd.Name], sd)
		byID[sd.SpanID] = sd
	}

	// One timeline: job.run hangs off http.request, the cluster spans
	// hang off the job, worker spans hang off their shard dispatch.
	httpSpan := byName["http.request"][0]
	if httpSpan.ParentID != "" {
		t.Fatalf("http.request has parent %q, want root", httpSpan.ParentID)
	}
	job := byName["job.run"][0]
	if job.ParentID != httpSpan.SpanID {
		t.Fatalf("job.run parent = %q, want http.request %q", job.ParentID, httpSpan.SpanID)
	}
	// ext-coopber sweeps several SNR points, each a cluster.run split
	// one shard per ready worker: 3 until the induced failure marks w1
	// dead, 2 after. Every shard dispatch must parent to one of those
	// runs.
	perRun := map[string]int{}
	for _, cr := range byName["cluster.run"] {
		perRun[cr.SpanID] = 0
	}
	shardIDs := map[string]bool{}
	for _, sh := range byName["cluster.shard"] {
		if _, ok := perRun[sh.ParentID]; !ok {
			t.Fatalf("cluster.shard parent %q is not a cluster.run", sh.ParentID)
		}
		perRun[sh.ParentID]++
		shardIDs[sh.SpanID] = true
	}
	full := 0
	for id, n := range perRun {
		if n != 2 && n != 3 {
			t.Fatalf("cluster.run %s has %d shards, want one per ready worker (2 or 3)", id, n)
		}
		if n == 3 {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no cluster.run split across all 3 workers; the first run starts before any failure")
	}
	nodes := map[string]bool{}
	for _, ex := range byName["shard.execute"] {
		if !shardIDs[ex.ParentID] {
			t.Fatalf("shard.execute parent %q is not a cluster.shard", ex.ParentID)
		}
		if n := ex.Attr("node"); n != "" {
			nodes[n] = true
		}
	}
	if len(nodes) < 2 {
		t.Fatalf("shard.execute spans name %d distinct workers, want >= 2", len(nodes))
	}

	events := map[string]int{}
	for _, sd := range tr.Spans {
		for _, ev := range sd.Events {
			events[ev.Name]++
		}
	}
	if events["retry"] == 0 || events["worker_dead"] == 0 {
		t.Fatalf("induced failure left no evidence; events = %v", events)
	}

	// The Chrome export must be valid JSON with a traceEvents array.
	cresp, err := http.Get(ts.URL + "/v1/traces/" + tid + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("chrome export status = %d, want 200", cresp.StatusCode)
	}
	if cd := cresp.Header.Get("Content-Disposition"); !strings.Contains(cd, "trace-"+tid) {
		t.Fatalf("Content-Disposition = %q", cd)
	}
	raw, err := io.ReadAll(cresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatal("chrome export is not valid JSON")
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) < len(tr.Spans) {
		t.Fatalf("chrome export has %d events for %d spans", len(chrome.TraceEvents), len(tr.Spans))
	}

	// The index lists the trace.
	_, idx := getJSON(t, ts.URL+"/debug/traces")
	listed, _ := idx["traces"].([]any)
	found := false
	for _, e := range listed {
		if m, ok := e.(map[string]any); ok && m["trace_id"] == tid {
			found = true
		}
	}
	if !found {
		t.Fatalf("/debug/traces does not list %s: %v", tid, idx)
	}
}

// TestTraceEndpointsDisabledWithoutRecorder pins the off-by-default
// contract: no recorder, both trace endpoints answer 503 and job
// submission is unaffected.
func TestTraceEndpointsDisabledWithoutRecorder(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})

	for _, path := range []string{"/v1/traces/deadbeef", "/debug/traces"} {
		resp, body := getJSON(t, ts.URL+path)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s status = %d, want 503", path, resp.StatusCode)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, "tracing disabled") {
			t.Fatalf("%s error = %q", path, msg)
		}
	}

	resp, _ := postJSON(t, ts.URL+"/v1/experiments", `{"id":"fig6a","seed":1,"quick":true,"wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced submit status = %d, want 200", resp.StatusCode)
	}
}

// TestTraceNotFound distinguishes "tracing on, unknown id" (404) from
// "tracing off" (503).
func TestTraceNotFound(t *testing.T) {
	rec := obs.NewTraceRecorder(4, 64)
	ts, _ := newTracedClusterServer(t, rec)
	resp, body := getJSON(t, ts.URL+"/v1/traces/00000000000000000000000000000000")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "no such trace") {
		t.Fatalf("error = %q", msg)
	}
}
