package main

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemonEnv marks a re-executed test binary as the daemon under test:
// TestMain then runs main() on the process arguments instead of the
// tests, so the daemon test needs no separate `go build`.
const daemonEnv = "COGMIMOD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// coreMetrics must each carry a # TYPE line on /metrics/prom.
var coreMetrics = []string{
	"cogmimod_jobs_total",
	"cogmimod_queue_depth",
	"cogmimod_cache_hits_total",
	"cogmimod_job_duration_seconds",
	"cogmimod_mc_trials_total",
	"cogmimod_uptime_seconds",
}

// TestDaemonServesMetricsAndDrainsOnSIGTERM runs the daemon in its own
// process, so the whole wiring is under test: flag parsing, store and
// tracing setup, the HTTP mux, the Prometheus exposition and the
// signal-driven drain.
func TestDaemonServesMetricsAndDrainsOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a daemon process")
	}
	const grace, drain = 5 * time.Second, 200 * time.Millisecond
	d := startDaemon(t, "-workers", "1", "-log-level", "warn",
		"-data-dir", t.TempDir(),
		"-grace", grace.String(), "-drain", drain.String())
	base := d.base

	// One quick synchronous job so jobs_total and the duration
	// histogram reflect real traffic, not just zero-initialised series.
	resp, err := http.Post(base+"/v1/experiments", "application/json",
		strings.NewReader(`{"id":"fig6a","seed":1,"quick":true,"wait":true}`))
	if err != nil {
		t.Fatalf("submitting job: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job: status %d: %s", resp.StatusCode, body)
	}

	resp, err = http.Get(base + "/metrics/prom")
	if err != nil {
		t.Fatalf("scraping /metrics/prom: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics/prom: status %d: %s", resp.StatusCode, raw)
	}
	scrape := string(raw)
	for _, name := range coreMetrics {
		if !strings.Contains(scrape, "# TYPE "+name+" ") {
			t.Errorf("scrape has no # TYPE line for %s", name)
		}
	}
	if !strings.Contains(scrape, `cogmimod_jobs_total{status="done"} 1`) {
		t.Errorf("jobs_total did not count the job as done")
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", scrape)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			t.Fatalf("daemon did not exit cleanly on SIGTERM: %v", d.waitErr)
		}
	case <-time.After(grace + drain):
		t.Fatalf("daemon still running %v after SIGTERM", grace+drain)
	}
}

// TestCoordinatorMatchesSerialGolden runs main's coordinator branch: a
// daemon started with -peers shards ext-coopber to a worker daemon and
// answers the serial golden report byte for byte.
func TestCoordinatorMatchesSerialGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns two daemon processes")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "golden", "ext-coopber_quick_seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	worker := startDaemon(t, "-workers", "1", "-log-level", "warn")
	coord := startDaemon(t, "-workers", "1", "-log-level", "warn", "-peers", worker.addr)

	resp, err := http.Post(coord.base+"/v1/experiments", "application/json",
		strings.NewReader(`{"id":"ext-coopber","seed":1,"quick":true,"wait":true}`))
	if err != nil {
		t.Fatalf("submitting job: %v", err)
	}
	var jr struct {
		Report string `json:"report"`
	}
	err = json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("job: status %d, decode error %v", resp.StatusCode, err)
	}
	if jr.Report != string(want) {
		t.Fatalf("coordinator report differs from serial golden\n--- got ---\n%s--- want ---\n%s", jr.Report, want)
	}

	// A coordinator whose shards all fell back to local runs would
	// answer the same report; the worker must have served shards.
	resp, err = http.Get(worker.base + "/metrics/prom")
	if err != nil {
		t.Fatalf("scraping worker /metrics/prom: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	const served = `cogmimod_worker_shards_total{status="ok"} `
	var n int
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, served); ok {
			n, _ = strconv.Atoi(v)
		}
	}
	if n == 0 {
		t.Fatalf("worker served no shards; scrape:\n%s", raw)
	}
}

// daemon is the test binary re-executed as cogmimod.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // host:port it listens on
	base    string // http://addr
	exited  chan struct{}
	waitErr error // cmd.Wait's result, valid once exited is closed
}

// startDaemon runs main() in a child process on a free loopback port
// with the given flags, waits until /healthz answers 200 and kills the
// process when the test ends.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	// Reserve a loopback port, then hand it to the daemon.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	d := &daemon{addr: addr, base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(os.Args[0], append([]string{"-addr", addr}, args...)...)
	d.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	d.cmd.Stderr = os.Stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	go func() { d.waitErr = d.cmd.Wait(); close(d.exited) }()
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill()
		<-d.exited
	})
	waitHealthy(t, d.base, d.exited)
	return d
}

// waitHealthy polls /healthz until the daemon answers 200, failing the
// test if the daemon exits first or stays unhealthy for 15 s.
func waitHealthy(t *testing.T, base string, exited <-chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
			err = errors.New(resp.Status)
		}
		select {
		case <-exited:
			t.Fatal("daemon exited before becoming healthy")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon not healthy after 15s: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
