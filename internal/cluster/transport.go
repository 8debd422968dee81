package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// A Transport moves shard requests to one worker node and health probes
// to the same node. HTTPTransport is the production implementation;
// Loopback keeps everything in-process so the scheduler's full retry /
// reassignment machinery runs under go test -race without opening a
// socket.
type Transport interface {
	// ExecShard runs the shard on the addressed worker and returns its
	// partials. Implementations must honour ctx cancellation — a
	// cancelled run stops its in-flight shards through it.
	ExecShard(ctx context.Context, addr string, req ShardRequest) (ShardResult, error)
	// Probe reports whether the addressed worker is alive and ready to
	// accept shards. An error or non-ready state counts as a failed
	// probe toward the registry's death threshold.
	Probe(ctx context.Context, addr string) error
}

// HTTPTransport speaks the cogmimod wire protocol: POST /v1/shards for
// work, GET /healthz for probes. The coordinator's trace id rides the
// X-Trace-Id header so worker-side logs and spans of one experiment
// correlate across nodes.
type HTTPTransport struct {
	// Client is the underlying HTTP client; nil means a client with a
	// 10-minute timeout (shards are long-running by design, so a short
	// timeout would fail healthy work).
	Client *http.Client
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return &http.Client{Timeout: 10 * time.Minute}
}

func normalizeAddr(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + strings.TrimSuffix(addr, "/")
}

// ExecShard posts the shard and decodes the partials.
func (t *HTTPTransport) ExecShard(ctx context.Context, addr string, req ShardRequest) (ShardResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return ShardResult{}, fmt.Errorf("cluster: encode shard: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, normalizeAddr(addr)+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return ShardResult{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id := obs.TraceID(ctx); id != "" {
		hreq.Header.Set("X-Trace-Id", id)
	}
	resp, err := t.client().Do(hreq)
	if err != nil {
		return ShardResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return ShardResult{}, fmt.Errorf("cluster: worker %s: %s: %s", addr, resp.Status, strings.TrimSpace(string(msg)))
	}
	var res ShardResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return ShardResult{}, fmt.Errorf("cluster: decode shard result from %s: %w", addr, err)
	}
	if want := req.ChunkHi - req.ChunkLo; len(res.Partials) != want {
		return ShardResult{}, fmt.Errorf("cluster: worker %s returned %d partials, want %d", addr, len(res.Partials), want)
	}
	// A partial folds exactly its chunk's trials; any other count would
	// merge into a wrong answer, so the shard fails and is retried.
	plan := sim.Plan{Seed: req.Seed, Trials: req.Trials}
	for i, p := range res.Partials {
		if want := plan.ChunkTrials(req.ChunkLo + i); p.N != int64(want) {
			return ShardResult{}, fmt.Errorf("cluster: worker %s returned %d trials for chunk %d, want %d", addr, p.N, req.ChunkLo+i, want)
		}
	}
	return res, nil
}

// Probe hits the worker's health endpoint. A 200 means ready; 503 is
// how a draining worker refuses new shards; anything else is a failure.
func (t *HTTPTransport) Probe(ctx context.Context, addr string) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, normalizeAddr(addr)+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := t.client().Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: worker %s health: %s", addr, resp.Status)
	}
	return nil
}
