package httpapi

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

func TestMetricsPromExposition(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})

	// Move the job counters so the scrape reflects real traffic.
	resp, body := postJSON(t, ts.URL+"/v1/experiments",
		`{"id":"fig6a","seed":11,"quick":true,"wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed job: status=%d body=%v", resp.StatusCode, body)
	}

	scrape, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer scrape.Body.Close()
	if scrape.StatusCode != http.StatusOK {
		t.Fatalf("scrape status = %d", scrape.StatusCode)
	}
	if ct := scrape.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	raw, err := io.ReadAll(scrape.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)

	// The whole body parses: comments or exactly one sample per line.
	typed := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			t.Fatal("blank line in exposition output")
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}

	// Core metric names from the acceptance list, with TYPE headers.
	for _, name := range []string{
		"cogmimod_jobs_total",
		"cogmimod_queue_depth",
		"cogmimod_cache_hits_total",
		"cogmimod_job_duration_seconds",
		"cogmimod_mc_trials_total",
		"cogmimod_uptime_seconds",
		"cogmimod_http_request_duration_seconds",
	} {
		if !typed[name] {
			t.Errorf("missing # TYPE header for %s", name)
		}
	}
	for _, sample := range []string{
		`cogmimod_jobs_total{status="done"} `,
		`cogmimod_jobs_total{status="rejected"} `,
		"cogmimod_job_duration_seconds_bucket{le=\"+Inf\"} ",
		"cogmimod_job_duration_seconds_count ",
		"cogmimod_cache_misses_total ",
	} {
		if !strings.Contains(out, sample) {
			t.Errorf("scrape missing sample %q", sample)
		}
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})

	// A caller-supplied trace id is honoured end to end: echoed in the
	// response header and recorded on the job itself.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/experiments",
		strings.NewReader(`{"id":"fig6a","seed":21,"quick":true,"wait":true}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", "cafe0123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "cafe0123" {
		t.Fatalf("echoed trace id = %q, want cafe0123", got)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), `"trace_id": "cafe0123"`) {
		t.Errorf("job view missing trace id:\n%s", raw)
	}

	// Without the header the server generates one.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Trace-Id"); len(got) != 32 {
		t.Fatalf("generated trace id = %q, want 32 hex chars", got)
	}
}

func TestJobProgressOverHTTP(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	runner := func(ctx context.Context, req service.Request) (string, error) {
		p := obs.ProgressFrom(ctx)
		p.AddTotal(3)
		p.Add(1)
		close(started)
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-release:
		}
		p.Add(2)
		return "r", nil
	}
	ts, _ := newTestServer(t, service.Config{Workers: 1, Runner: runner})

	resp, body := postJSON(t, ts.URL+"/v1/experiments", `{"id":"x","seed":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	jobID, _ := body["job"].(string)
	<-started

	// Mid-flight the endpoint reports partial progress.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body = getJSON(t, ts.URL+"/v1/jobs/"+jobID)
		if p, ok := body["progress"].(map[string]any); ok && p["done_trials"].(float64) >= 1 {
			if p["total_trials"].(float64) != 3 {
				t.Fatalf("total_trials = %v, want 3", p["total_trials"])
			}
			if body["started_at"] == nil || body["queued_at"] == nil {
				t.Fatalf("running job missing timestamps: %v", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress reported: %v", body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// After completion done_trials reaches total_trials and stays there.
	close(release)
	for {
		_, body = getJSON(t, ts.URL+"/v1/jobs/"+jobID)
		if body["state"] == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish: %v", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	p, ok := body["progress"].(map[string]any)
	if !ok {
		t.Fatalf("finished job missing progress: %v", body)
	}
	if p["done_trials"].(float64) != 3 || p["total_trials"].(float64) != 3 {
		t.Fatalf("final progress = %v, want 3/3", p)
	}
	if body["finished_at"] == nil {
		t.Fatalf("finished job missing finished_at: %v", body)
	}
	if es, ok := p["elapsed_seconds"].(float64); !ok || es < 0 {
		t.Fatalf("elapsed_seconds = %v", p["elapsed_seconds"])
	}
}

func TestPprofMountGated(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof must be off by default, got %d", resp.StatusCode)
	}

	svc, err := service.New(service.Config{Workers: 1, Runner: func(ctx context.Context, req service.Request) (string, error) {
		return "r", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Stop(context.Background())
	tsOn := httptest.NewServer(NewMux(svc, Config{Pprof: true}))
	t.Cleanup(tsOn.Close)
	resp2, err := http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d with -pprof", resp2.StatusCode)
	}
}

// promMirrors maps each per-instance sample of /metrics/prom to the
// /v1/stats field it mirrors; storeMirrors does the same for the
// fields of the stats' "store" object.
var (
	promMirrors = map[string]string{
		`cogmimod_jobs_total{status="submitted"}`: "jobs_submitted",
		`cogmimod_jobs_total{status="rejected"}`:  "jobs_rejected",
		`cogmimod_jobs_total{status="done"}`:      "jobs_done",
		`cogmimod_jobs_total{status="failed"}`:    "jobs_failed",
		`cogmimod_jobs_total{status="canceled"}`:  "jobs_canceled",
		"cogmimod_cache_entries":                  "cache_entries",
		"cogmimod_cache_hits_total":               "cache_hits",
		"cogmimod_cache_disk_hits_total":          "cache_disk_hits",
		"cogmimod_cache_coalesced_total":          "cache_coalesced",
		"cogmimod_cache_misses_total":             "cache_misses",
		"cogmimod_cache_evictions_total":          "cache_evictions",
	}
	storeMirrors = map[string]string{
		"cogmimod_store_puts_total":                "puts",
		`cogmimod_store_gets_total{result="hit"}`:  "hits",
		`cogmimod_store_gets_total{result="miss"}`: "misses",
		"cogmimod_store_quarantined_total":         "quarantined",
		"cogmimod_store_gc_evictions_total":        "evictions",
		"cogmimod_store_bytes":                     "bytes",
		"cogmimod_store_entries":                   "entries",
	}
)

// scrapeProm fetches /metrics/prom as sample → value, failing on a
// family whose # TYPE header appears more than once.
func scrapeProm(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name = strings.Fields(name)[0]
			if typed[name] {
				t.Errorf("%s: family %s rendered twice", base, name)
			}
			typed[name] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sample, value, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("%s: sample line %q: %v", base, line, err)
		}
		samples[sample] = v
	}
	return samples
}

// TestMetricsPromMatchesStatsPerServer boots two servers in one process,
// one with a durable store, and drives each through a different job
// mix: a job cancelled while queued, a computed job and cache hits.
// Each server's job, cache and store samples must equal its own
// /v1/stats, with no family rendered twice and no legacy /metrics dump.
func TestMetricsPromMatchesStatsPerServer(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() }) // after both services stop

	bases := make([]string, 2)
	for i := range bases {
		release := make(chan struct{})
		runner := func(ctx context.Context, req service.Request) (string, error) {
			if req.ID == "block" {
				select {
				case <-release:
				case <-ctx.Done():
					return "", ctx.Err()
				}
			}
			return "report " + req.ID, nil
		}
		cfg := service.Config{Workers: 1, Runner: runner}
		if i == 1 {
			cfg.Store = st
		}
		ts, svc := newTestServer(t, cfg)
		bases[i] = ts.URL

		// The blocker holds the only worker, so the next job is still
		// queued when it is cancelled.
		_, blocker := postJSON(t, ts.URL+"/v1/experiments", `{"id":"block","seed":1}`)
		_, queued := postJSON(t, ts.URL+"/v1/experiments", `{"id":"queued","seed":1}`)
		del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued["job"].(string), nil)
		resp, err := http.DefaultClient.Do(del)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		close(release)
		if jv, err := svc.Wait(context.Background(), blocker["job"].(string)); err != nil || jv.State != service.StateDone {
			t.Fatalf("server %d: blocker = %+v, %v", i, jv, err)
		}
		// One computed job, then i+1 cache hits on it.
		for n := 0; n < i+2; n++ {
			if resp, body := postJSON(t, ts.URL+"/v1/experiments", `{"id":"fast","seed":2,"wait":true}`); resp.StatusCode != http.StatusOK {
				t.Fatalf("server %d: fast job: status=%d body=%v", i, resp.StatusCode, body)
			}
		}
	}

	submitted := make([]float64, len(bases))
	for i, base := range bases {
		samples := scrapeProm(t, base)
		_, stats := getJSON(t, base+"/v1/stats")
		for sample, field := range promMirrors {
			if got, ok := samples[sample]; !ok || got != stats[field] {
				t.Errorf("server %d: %s = %v (present %v), /v1/stats %s = %v", i, sample, got, ok, field, stats[field])
			}
		}
		if stats["jobs_canceled"] != 1.0 {
			t.Errorf("server %d: jobs_canceled = %v, want the one cancelled while queued", i, stats["jobs_canceled"])
		}
		storeStats, _ := stats["store"].(map[string]any)
		if (storeStats != nil) != (i == 1) {
			t.Errorf("server %d: /v1/stats store = %v", i, stats["store"])
		}
		for sample, field := range storeMirrors {
			got, ok := samples[sample]
			if storeStats == nil {
				if ok {
					t.Errorf("server %d has no store but renders %s", i, sample)
				}
				continue
			}
			if !ok || got != storeStats[field] {
				t.Errorf("server %d: %s = %v (present %v), /v1/stats store.%s = %v", i, sample, got, ok, field, storeStats[field])
			}
		}
		submitted[i] = samples[`cogmimod_jobs_total{status="submitted"}`]

		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("server %d: GET /metrics = %d, want 404", i, resp.StatusCode)
		}
	}
	if submitted[0] == submitted[1] {
		t.Errorf("both servers report %v submitted jobs; each must count only its own", submitted[0])
	}
}
