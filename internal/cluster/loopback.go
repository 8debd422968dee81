package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// LoopbackNode is one simulated worker behind a Loopback transport. Its
// knobs model the failure modes the scheduler must survive: a node can
// be killed mid-run (every in-flight and future call fails), told to
// fail its first N shards (transient errors → retry path), delayed
// (a slow node, which widens a mid-shard kill window or a cancellation
// window), or set draining (probe fails, shards refused).
type LoopbackNode struct {
	mu       sync.Mutex
	killed   bool
	draining bool
	failNext int
	delay    time.Duration
	shards   int // completed shards, for test assertions
}

// Kill marks the node dead; all subsequent calls fail.
func (n *LoopbackNode) Kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.killed = true
}

// SetDraining toggles the drain state; probes fail but the node stays
// alive.
func (n *LoopbackNode) SetDraining(d bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.draining = d
}

// FailNext makes the next k shard executions return an error before
// running any chunk, then recover.
func (n *LoopbackNode) FailNext(k int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failNext = k
}

// SetDelay stalls every shard execution by d before computing, to
// simulate a slow node.
func (n *LoopbackNode) SetDelay(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delay = d
}

// Shards reports how many shards the node completed.
func (n *LoopbackNode) Shards() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.shards
}

// Loopback is an in-process Transport over a set of named nodes. Shard
// execution goes through the same ExecuteShard path a real worker's
// HTTP handler uses, so loopback tests cover the full worker code —
// only the socket is missing.
type Loopback struct {
	mu    sync.Mutex
	nodes map[string]*LoopbackNode
	// Workers caps per-shard goroutines on each simulated node; keep it
	// small in tests so many nodes can compute concurrently.
	Workers int
}

// NewLoopback builds a transport with one node per address.
func NewLoopback(addrs ...string) *Loopback {
	l := &Loopback{nodes: make(map[string]*LoopbackNode), Workers: 1}
	for _, a := range addrs {
		l.nodes[a] = &LoopbackNode{}
	}
	return l
}

// Node returns the named node for test manipulation.
func (l *Loopback) Node(addr string) *LoopbackNode {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nodes[addr]
}

func (l *Loopback) get(addr string) (*LoopbackNode, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.nodes[addr]
	if !ok {
		return nil, fmt.Errorf("cluster: no loopback node %q", addr)
	}
	return n, nil
}

// ExecShard implements Transport.
func (l *Loopback) ExecShard(ctx context.Context, addr string, req ShardRequest) (ShardResult, error) {
	n, err := l.get(addr)
	if err != nil {
		return ShardResult{}, err
	}
	n.mu.Lock()
	killed, draining, delay := n.killed, n.draining, n.delay
	failing := n.failNext > 0
	if failing {
		n.failNext--
	}
	n.mu.Unlock()
	switch {
	case killed:
		return ShardResult{}, fmt.Errorf("cluster: loopback node %s: connection refused", addr)
	case draining:
		return ShardResult{}, fmt.Errorf("cluster: loopback node %s: draining", addr)
	case failing:
		return ShardResult{}, fmt.Errorf("cluster: loopback node %s: injected failure", addr)
	}
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return ShardResult{}, ctx.Err()
		case <-t.C:
		}
	}
	// A real worker is a separate process: the coordinator's progress
	// sink and trace recorder do not reach it. Detach both here so the
	// coordinator's per-shard accounting is the single source of
	// progress and worker spans travel home only inside the result, in
	// both transports.
	wctx := obs.WithRecorder(obs.WithProgress(ctx, obs.Nop), nil)
	res, err := ExecuteShard(wctx, addr, l.Workers, req)
	if err != nil {
		return ShardResult{}, err
	}
	// A node killed while the shard was computing models a crash before
	// the response made it back to the coordinator.
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.killed {
		return ShardResult{}, fmt.Errorf("cluster: loopback node %s: connection reset", addr)
	}
	n.shards++
	return res, nil
}

// Probe implements Transport.
func (l *Loopback) Probe(ctx context.Context, addr string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n, err := l.get(addr)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.killed {
		return fmt.Errorf("cluster: loopback node %s: connection refused", addr)
	}
	if n.draining {
		return fmt.Errorf("cluster: loopback node %s: draining", addr)
	}
	return nil
}
