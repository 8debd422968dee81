package network

import "fmt"

// Graph is the SU connectivity graph G = (V, E): an edge joins two nodes
// within communication range r of each other.
type Graph struct {
	Deployment *Deployment
	// Range is the communication range r in metres.
	Range float64
	adj   map[NodeID][]NodeID
}

// NewGraph builds the range graph over a deployment.
func NewGraph(d *Deployment, r float64) (*Graph, error) {
	if r <= 0 {
		return nil, fmt.Errorf("network: communication range %g must be positive", r)
	}
	g := &Graph{Deployment: d, Range: r, adj: make(map[NodeID][]NodeID, len(d.Nodes))}
	for i := range d.Nodes {
		for j := i + 1; j < len(d.Nodes); j++ {
			a, b := &d.Nodes[i], &d.Nodes[j]
			if a.Pos.Dist(b.Pos) <= r {
				g.adj[a.ID] = append(g.adj[a.ID], b.ID)
				g.adj[b.ID] = append(g.adj[b.ID], a.ID)
			}
		}
	}
	return g, nil
}

// Components returns the connected components as slices of node IDs, in
// deployment order within and across components.
func (g *Graph) Components() [][]NodeID {
	visited := make(map[NodeID]bool, len(g.Deployment.Nodes))
	var comps [][]NodeID
	for _, n := range g.Deployment.Nodes {
		if visited[n.ID] {
			continue
		}
		var comp []NodeID
		queue := []NodeID{n.ID}
		visited[n.ID] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			comp = append(comp, cur)
			for _, nb := range g.adj[cur] {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// ShortestPath returns a minimum-hop path from a to b (inclusive), or nil
// if unreachable.
func (g *Graph) ShortestPath(a, b NodeID) []NodeID {
	if a == b {
		return []NodeID{a}
	}
	prev := map[NodeID]NodeID{a: a}
	queue := []NodeID{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.adj[cur] {
			if _, seen := prev[nb]; seen {
				continue
			}
			prev[nb] = cur
			if nb == b {
				return tracePath(prev, a, b)
			}
			queue = append(queue, nb)
		}
	}
	return nil
}

func tracePath(prev map[NodeID]NodeID, a, b NodeID) []NodeID {
	var rev []NodeID
	for cur := b; ; cur = prev[cur] {
		rev = append(rev, cur)
		if cur == a {
			break
		}
	}
	path := make([]NodeID, len(rev))
	for i, id := range rev {
		path[len(rev)-1-i] = id
	}
	return path
}
