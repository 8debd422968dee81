package network

import (
	"fmt"
	"sort"

	"repro/internal/units"
)

// LinkKind classifies a cooperative link by its antenna counts
// (Section 2.1).
type LinkKind string

// Link kinds.
const (
	SISOLink LinkKind = "SISO"
	MISOLink LinkKind = "MISO"
	SIMOLink LinkKind = "SIMO"
	MIMOLink LinkKind = "MIMO"
)

// ClassifyLink names the link an mt-by-mr pair forms.
func ClassifyLink(mt, mr int) LinkKind {
	switch {
	case mt == 1 && mr == 1:
		return SISOLink
	case mt > 1 && mr == 1:
		return MISOLink
	case mt == 1 && mr > 1:
		return SIMOLink
	default:
		return MIMOLink
	}
}

// MIMOEdge is one edge of G_MIMO: a cooperative link between clusters.
type MIMOEdge struct {
	A, B ClusterID
	// D is the largest member-to-member distance, sizing the link.
	D float64
	// Kind is the link class given the two cluster sizes.
	Kind LinkKind
}

// CoMIMONet is the cluster-level network G_MIMO = (V_MIMO, E_MIMO) plus
// the spanning-tree routing backbone over head nodes.
type CoMIMONet struct {
	Clustering *Clustering
	// MaxLinkD is the maximum cooperative-link length D.
	MaxLinkD float64
	Edges    []MIMOEdge
	adj      map[ClusterID][]int // cluster -> indices into Edges
	// parent encodes the spanning-tree backbone; parent[root] == root.
	parent map[ClusterID]ClusterID
	root   ClusterID
}

// BuildCoMIMONet assembles G_MIMO: clusters are vertices and an edge
// joins A and B when their largest member distance is at most maxLinkD
// (D >> d in the paper). The backbone is the minimum spanning tree over
// edge lengths (Kruskal), rooted at the lowest cluster ID.
func BuildCoMIMONet(cl *Clustering, maxLinkD float64) (*CoMIMONet, error) {
	if maxLinkD <= 0 {
		return nil, fmt.Errorf("network: max link length %g must be positive", maxLinkD)
	}
	net := &CoMIMONet{
		Clustering: cl,
		MaxLinkD:   maxLinkD,
		adj:        make(map[ClusterID][]int),
	}
	for i := range cl.Clusters {
		for j := i + 1; j < len(cl.Clusters); j++ {
			a, b := &cl.Clusters[i], &cl.Clusters[j]
			d := cl.ClusterDistance(a, b)
			if d <= maxLinkD {
				net.Edges = append(net.Edges, MIMOEdge{
					A: a.ID, B: b.ID, D: d,
					Kind: ClassifyLink(a.Size(), b.Size()),
				})
			}
		}
	}
	for idx, e := range net.Edges {
		net.adj[e.A] = append(net.adj[e.A], idx)
		net.adj[e.B] = append(net.adj[e.B], idx)
	}
	net.buildBackbone()
	return net, nil
}

// buildBackbone runs Kruskal over the MIMO edges and stores the tree as
// parent pointers from a BFS rooted at the lowest cluster ID of each
// component (a forest when G_MIMO is disconnected).
func (net *CoMIMONet) buildBackbone() {
	n := len(net.Clustering.Clusters)
	dsu := newDSU(n)
	order := make([]int, len(net.Edges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := net.Edges[order[x]], net.Edges[order[y]]
		if a.D != b.D {
			return a.D < b.D
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	tree := make(map[ClusterID][]ClusterID)
	for _, idx := range order {
		e := net.Edges[idx]
		if dsu.union(int(e.A), int(e.B)) {
			tree[e.A] = append(tree[e.A], e.B)
			tree[e.B] = append(tree[e.B], e.A)
		}
	}
	net.parent = make(map[ClusterID]ClusterID, n)
	visited := make(map[ClusterID]bool, n)
	for i := range net.Clustering.Clusters {
		id := net.Clustering.Clusters[i].ID
		if visited[id] {
			continue
		}
		if net.root == 0 && i == 0 {
			net.root = id
		}
		net.parent[id] = id
		visited[id] = true
		queue := []ClusterID{id}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range tree[cur] {
				if !visited[nb] {
					visited[nb] = true
					net.parent[nb] = cur
					queue = append(queue, nb)
				}
			}
		}
	}
}

// Route returns the cluster path from src to dst along the backbone
// tree, or nil when they sit in different components.
func (net *CoMIMONet) Route(src, dst ClusterID) []ClusterID {
	up := func(id ClusterID) []ClusterID {
		path := []ClusterID{id}
		for net.parent[id] != id {
			id = net.parent[id]
			path = append(path, id)
		}
		return path
	}
	a, b := up(src), up(dst)
	if a[len(a)-1] != b[len(b)-1] {
		return nil // different trees
	}
	// Trim the common suffix, keeping the meeting point once.
	for len(a) > 1 && len(b) > 1 && a[len(a)-2] == b[len(b)-2] {
		a = a[:len(a)-1]
		b = b[:len(b)-1]
	}
	for i := len(b) - 2; i >= 0; i-- {
		a = append(a, b[i])
	}
	return a
}

// EdgeBetween returns the G_MIMO edge joining a and b, if any.
func (net *CoMIMONet) EdgeBetween(a, b ClusterID) (MIMOEdge, bool) {
	for _, idx := range net.adj[a] {
		e := net.Edges[idx]
		if (e.A == a && e.B == b) || (e.A == b && e.B == a) {
			return e, true
		}
	}
	return MIMOEdge{}, false
}

// HopCoster evaluates the cooperative-hop energy of Section 2.2;
// cmd/netsim and the root package implement it with
// energy.Model.HopEnergy. It is an interface here so routing can be
// tested without the numeric stack.
type HopCoster interface {
	// HopEnergy returns the total per-bit energy for one cooperative hop
	// with mt transmit and mr receive nodes over link length D and
	// intra-cluster diameter d.
	HopEnergy(mt, mr int, d, D float64) (units.JoulePerBit, error)
}

// RouteEnergy sums HopEnergy along a backbone route. Each hop uses the
// full sizes of its endpoint clusters.
func (net *CoMIMONet) RouteEnergy(route []ClusterID, hc HopCoster) (units.JoulePerBit, error) {
	var total units.JoulePerBit
	for i := 0; i+1 < len(route); i++ {
		a := &net.Clustering.Clusters[route[i]]
		b := &net.Clustering.Clusters[route[i+1]]
		e, ok := net.EdgeBetween(a.ID, b.ID)
		if !ok {
			return 0, fmt.Errorf("network: route hop %d-%d is not a G_MIMO edge", a.ID, b.ID)
		}
		d := net.Clustering.Diameter(a)
		if db := net.Clustering.Diameter(b); db > d {
			d = db
		}
		cost, err := hc.HopEnergy(a.Size(), b.Size(), d, e.D)
		if err != nil {
			return 0, fmt.Errorf("network: hop %d-%d: %w", a.ID, b.ID, err)
		}
		total += cost
	}
	return total, nil
}

// dsu is a union-find over integer indices.
type dsu struct {
	parent []int
	rank   []int
}

func newDSU(n int) *dsu {
	d := &dsu{parent: make([]int, n), rank: make([]int, n)}
	for i := range d.parent {
		d.parent[i] = i
	}
	return d
}

func (d *dsu) find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

func (d *dsu) union(a, b int) bool {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return false
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	return true
}
