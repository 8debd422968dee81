// Package network implements the CoMIMONet model of Section 2.1: a graph
// of single-antenna secondary-user nodes, its d-clustering into
// cooperative MIMO nodes, head election and the spanning-tree routing
// backbone over heads.
package network

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
)

// NodeID identifies a secondary-user node.
type NodeID int

// Node is one single-antenna SU radio.
type Node struct {
	ID NodeID
	// Pos is the deployment position in metres.
	Pos geom.Point
	// BatteryJ is the remaining battery energy in joules. Head election
	// prefers the highest-battery member, as the head carries the
	// coordination burden.
	BatteryJ float64
}

// Deployment is an immutable set of placed nodes.
type Deployment struct {
	Nodes []Node
}

// NewDeployment copies nodes, validating unique IDs.
func NewDeployment(nodes []Node) (*Deployment, error) {
	seen := make(map[NodeID]bool, len(nodes))
	for _, n := range nodes {
		if seen[n.ID] {
			return nil, fmt.Errorf("network: duplicate node ID %d", n.ID)
		}
		seen[n.ID] = true
	}
	d := &Deployment{Nodes: append([]Node(nil), nodes...)}
	return d, nil
}

// RandomDeployment scatters n nodes uniformly over a w-by-h field with
// batteries uniform in [minJ, maxJ].
func RandomDeployment(rng *rand.Rand, n int, w, h, minJ, maxJ float64) *Deployment {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{
			ID:       NodeID(i),
			Pos:      geom.RandomInRect(rng, 0, 0, w, h),
			BatteryJ: minJ + (maxJ-minJ)*rng.Float64(),
		}
	}
	return &Deployment{Nodes: nodes}
}

// GridDeployment places n*n nodes on a regular grid with the given pitch
// — a deterministic layout for reproducible examples.
func GridDeployment(n int, pitch, batteryJ float64) *Deployment {
	nodes := make([]Node, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			nodes = append(nodes, Node{
				ID:       NodeID(i*n + j),
				Pos:      geom.Pt(float64(j)*pitch, float64(i)*pitch),
				BatteryJ: batteryJ,
			})
		}
	}
	return &Deployment{Nodes: nodes}
}

// ByID returns the node with the given ID, or nil.
func (d *Deployment) ByID(id NodeID) *Node {
	for i := range d.Nodes {
		if d.Nodes[i].ID == id {
			return &d.Nodes[i]
		}
	}
	return nil
}
