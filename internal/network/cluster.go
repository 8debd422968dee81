package network

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// ClusterID identifies a cooperative MIMO node (a d-cluster).
type ClusterID int

// Cluster is a d-cluster: a set of SU nodes whose pairwise distances are
// at most d, acting together as one cooperative MIMO node. Members[0] is
// kept sorted by ID for determinism; Head is elected separately.
type Cluster struct {
	ID      ClusterID
	Members []NodeID
	Head    NodeID
}

// Size returns the antenna count the cluster can contribute.
func (c *Cluster) Size() int { return len(c.Members) }

// Clustering is a node-disjoint division of V into d-clusters.
type Clustering struct {
	Graph *Graph
	// D is the clustering diameter bound d (d <= r).
	D        float64
	Clusters []Cluster
	byNode   map[NodeID]ClusterID
}

// DCluster greedily partitions the deployment into d-clusters: nodes are
// scanned in ID order; each unassigned node seeds a cluster and absorbs
// every unassigned node within d of all current members (keeping the
// diameter invariant by construction). Greedy seeding is the baseline the
// clustering ablation benchmark compares against grid seeding.
func DCluster(g *Graph, d float64) (*Clustering, error) {
	if d <= 0 || d > g.Range {
		return nil, fmt.Errorf("network: cluster diameter %g outside (0, r=%g]", d, g.Range)
	}
	nodes := append([]Node(nil), g.Deployment.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })

	assigned := make(map[NodeID]bool, len(nodes))
	cl := &Clustering{Graph: g, D: d, byNode: make(map[NodeID]ClusterID, len(nodes))}
	for _, seed := range nodes {
		if assigned[seed.ID] {
			continue
		}
		members := []Node{seed}
		assigned[seed.ID] = true
		for _, cand := range nodes {
			if assigned[cand.ID] {
				continue
			}
			ok := true
			for _, m := range members {
				if cand.Pos.Dist(m.Pos) > d {
					ok = false
					break
				}
			}
			if ok {
				members = append(members, cand)
				assigned[cand.ID] = true
			}
		}
		id := ClusterID(len(cl.Clusters))
		ids := make([]NodeID, len(members))
		for i, m := range members {
			ids[i] = m.ID
			cl.byNode[m.ID] = id
		}
		cl.Clusters = append(cl.Clusters, Cluster{ID: id, Members: ids})
	}
	cl.ElectHeads()
	return cl, nil
}

// ElectHeads picks each cluster's head: the member with the highest
// battery, ties broken by lowest ID. Re-running after battery drain
// implements the paper's reconfiguration.
func (cl *Clustering) ElectHeads() {
	for i := range cl.Clusters {
		c := &cl.Clusters[i]
		best := c.Members[0]
		bestJ := cl.Graph.Deployment.ByID(best).BatteryJ
		for _, id := range c.Members[1:] {
			j := cl.Graph.Deployment.ByID(id).BatteryJ
			if j > bestJ || (j == bestJ && id < best) {
				best, bestJ = id, j
			}
		}
		c.Head = best
	}
}

// MemberPositions returns the positions of the cluster's members.
func (cl *Clustering) MemberPositions(c *Cluster) []geom.Point {
	ps := make([]geom.Point, len(c.Members))
	for i, id := range c.Members {
		ps[i] = cl.Graph.Deployment.ByID(id).Pos
	}
	return ps
}

// Centroid returns the cluster's mean position.
func (cl *Clustering) Centroid(c *Cluster) geom.Point {
	return geom.Centroid(cl.MemberPositions(c))
}

// Diameter returns the largest pairwise member distance.
func (cl *Clustering) Diameter(c *Cluster) float64 {
	return geom.Diameter(cl.MemberPositions(c))
}

// Validate checks the clustering invariants: node-disjoint cover of V,
// every diameter at most d, and every head a member of its cluster.
func (cl *Clustering) Validate() error {
	seen := make(map[NodeID]bool)
	for i := range cl.Clusters {
		c := &cl.Clusters[i]
		if len(c.Members) == 0 {
			return fmt.Errorf("network: cluster %d empty", c.ID)
		}
		headOK := false
		for _, id := range c.Members {
			if seen[id] {
				return fmt.Errorf("network: node %d in two clusters", id)
			}
			seen[id] = true
			if id == c.Head {
				headOK = true
			}
		}
		if !headOK {
			return fmt.Errorf("network: head %d not a member of cluster %d", c.Head, c.ID)
		}
		if dm := cl.Diameter(c); dm > cl.D+1e-9 {
			return fmt.Errorf("network: cluster %d diameter %g exceeds d=%g", c.ID, dm, cl.D)
		}
	}
	if len(seen) != len(cl.Graph.Deployment.Nodes) {
		return fmt.Errorf("network: clustering covers %d of %d nodes", len(seen), len(cl.Graph.Deployment.Nodes))
	}
	return nil
}

// DClusterGrid partitions by spatial hashing: nodes fall into square
// cells of side d/sqrt(2), so any two nodes sharing a cell are at most d
// apart and every non-empty cell is a valid d-cluster. It is O(n) where
// the greedy DCluster is O(n^2) — the clustering ablation contrasts the
// two: grid seeding is faster but fragments clusters at cell borders.
func DClusterGrid(g *Graph, d float64) (*Clustering, error) {
	if d <= 0 || d > g.Range {
		return nil, fmt.Errorf("network: cluster diameter %g outside (0, r=%g]", d, g.Range)
	}
	cell := d / math.Sqrt2
	type cellKey struct{ X, Y int }
	buckets := make(map[cellKey][]NodeID)
	var order []cellKey
	nodes := append([]Node(nil), g.Deployment.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for _, n := range nodes {
		k := cellKey{int(math.Floor(n.Pos.X / cell)), int(math.Floor(n.Pos.Y / cell))}
		if len(buckets[k]) == 0 {
			order = append(order, k)
		}
		buckets[k] = append(buckets[k], n.ID)
	}
	cl := &Clustering{Graph: g, D: d, byNode: make(map[NodeID]ClusterID, len(nodes))}
	for _, k := range order {
		id := ClusterID(len(cl.Clusters))
		for _, nid := range buckets[k] {
			cl.byNode[nid] = id
		}
		cl.Clusters = append(cl.Clusters, Cluster{ID: id, Members: buckets[k]})
	}
	cl.ElectHeads()
	return cl, nil
}

// ClusterDistance returns the largest distance between a member of a and
// a member of b — the D that sizes the cooperative MIMO link between
// them (Section 2.1).
func (cl *Clustering) ClusterDistance(a, b *Cluster) float64 {
	max := 0.0
	for _, ia := range a.Members {
		pa := cl.Graph.Deployment.ByID(ia).Pos
		for _, ib := range b.Members {
			if d := pa.Dist(cl.Graph.Deployment.ByID(ib).Pos); d > max {
				max = d
			}
		}
	}
	return max
}
