package network

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/units"
)

func TestNewDeploymentDuplicateID(t *testing.T) {
	_, err := NewDeployment([]Node{{ID: 1}, {ID: 1}})
	if err == nil {
		t.Error("duplicate IDs should fail")
	}
	d, err := NewDeployment([]Node{{ID: 1}, {ID: 2}})
	if err != nil || len(d.Nodes) != 2 {
		t.Errorf("valid deployment failed: %v", err)
	}
}

func TestRandomDeployment(t *testing.T) {
	rng := mathx.NewRand(81)
	d := RandomDeployment(rng, 50, 100, 200, 1, 5)
	if len(d.Nodes) != 50 {
		t.Fatalf("%d nodes", len(d.Nodes))
	}
	for _, n := range d.Nodes {
		if n.Pos.X < 0 || n.Pos.X > 100 || n.Pos.Y < 0 || n.Pos.Y > 200 {
			t.Fatalf("node outside field: %v", n.Pos)
		}
		if n.BatteryJ < 1 || n.BatteryJ > 5 {
			t.Fatalf("battery out of range: %v", n.BatteryJ)
		}
	}
	if d.ByID(49) == nil || d.ByID(50) != nil {
		t.Error("ByID lookup wrong")
	}
}

func TestGridDeployment(t *testing.T) {
	d := GridDeployment(3, 10, 2)
	if len(d.Nodes) != 9 {
		t.Fatalf("%d nodes", len(d.Nodes))
	}
	if d.Nodes[4].Pos != geom.Pt(10, 10) {
		t.Errorf("centre node at %v", d.Nodes[4].Pos)
	}
}

func TestGraphBasics(t *testing.T) {
	d := GridDeployment(3, 10, 1) // 3x3 grid, pitch 10
	g, err := NewGraph(d, 10.5)   // orthogonal neighbours only
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(g.adj[0], 1) || !slices.Contains(g.adj[0], 3) {
		t.Error("orthogonal neighbours should be edges")
	}
	if slices.Contains(g.adj[0], 4) {
		t.Error("diagonal (14.1 m) should not be an edge at r=10.5")
	}
	if len(g.adj[4]) != 4 {
		t.Errorf("centre degree = %d, want 4", len(g.adj[4]))
	}
	if len(g.adj[0]) != 2 {
		t.Errorf("corner degree = %d, want 2", len(g.adj[0]))
	}
	if len(g.Components()) != 1 {
		t.Error("grid should be connected")
	}
	if _, err := NewGraph(d, 0); err == nil {
		t.Error("zero range should fail")
	}
}

func TestGraphComponents(t *testing.T) {
	nodes := []Node{
		{ID: 0, Pos: geom.Pt(0, 0)},
		{ID: 1, Pos: geom.Pt(1, 0)},
		{ID: 2, Pos: geom.Pt(100, 0)},
	}
	d, _ := NewDeployment(nodes)
	g, _ := NewGraph(d, 5)
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("%d components", len(comps))
	}
}

func TestShortestPath(t *testing.T) {
	d := GridDeployment(3, 10, 1)
	g, _ := NewGraph(d, 10.5)
	p := g.ShortestPath(0, 8)
	if len(p) != 5 { // 4 hops across the grid
		t.Errorf("path %v, want 5 nodes", p)
	}
	if p[0] != 0 || p[len(p)-1] != 8 {
		t.Errorf("endpoints wrong: %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if !slices.Contains(g.adj[p[i]], p[i+1]) {
			t.Errorf("hop %d-%d not an edge", p[i], p[i+1])
		}
	}
	if p := g.ShortestPath(3, 3); len(p) != 1 || p[0] != 3 {
		t.Errorf("self path = %v", p)
	}
	// Unreachable.
	nodes := []Node{{ID: 0, Pos: geom.Pt(0, 0)}, {ID: 1, Pos: geom.Pt(100, 0)}}
	dd, _ := NewDeployment(nodes)
	gg, _ := NewGraph(dd, 1)
	if gg.ShortestPath(0, 1) != nil {
		t.Error("unreachable path should be nil")
	}
}

func TestDClusterInvariants(t *testing.T) {
	rng := mathx.NewRand(82)
	d := RandomDeployment(rng, 80, 100, 100, 1, 5)
	g, err := NewGraph(d, 20)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DCluster(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every node belongs to exactly one cluster.
	seen := map[NodeID]int{}
	for _, c := range cl.Clusters {
		for _, m := range c.Members {
			seen[m]++
		}
	}
	for _, n := range d.Nodes {
		if seen[n.ID] != 1 {
			t.Fatalf("node %d in %d clusters", n.ID, seen[n.ID])
		}
	}
}

func TestDClusterValidation(t *testing.T) {
	d := GridDeployment(2, 10, 1)
	g, _ := NewGraph(d, 15)
	if _, err := DCluster(g, 0); err == nil {
		t.Error("d=0 should fail")
	}
	if _, err := DCluster(g, 20); err == nil {
		t.Error("d>r should fail")
	}
}

func TestDClusterProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := mathx.NewRand(seed)
		n := 5 + rng.Intn(60)
		d := RandomDeployment(rng, n, 50, 50, 1, 2)
		g, err := NewGraph(d, 25)
		if err != nil {
			return false
		}
		cl, err := DCluster(g, 10)
		if err != nil {
			return false
		}
		return cl.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHeadElection(t *testing.T) {
	nodes := []Node{
		{ID: 0, Pos: geom.Pt(0, 0), BatteryJ: 1},
		{ID: 1, Pos: geom.Pt(1, 0), BatteryJ: 5},
		{ID: 2, Pos: geom.Pt(0, 1), BatteryJ: 5},
	}
	d, _ := NewDeployment(nodes)
	g, _ := NewGraph(d, 10)
	cl, _ := DCluster(g, 5)
	if len(cl.Clusters) != 1 {
		t.Fatalf("%d clusters", len(cl.Clusters))
	}
	// Highest battery wins; tie broken by lowest ID (1 over 2).
	if cl.Clusters[0].Head != 1 {
		t.Errorf("head = %d, want 1", cl.Clusters[0].Head)
	}
	// Drain the head; re-election moves to node 2.
	d.ByID(1).BatteryJ = 0.5
	cl.ElectHeads()
	if cl.Clusters[0].Head != 2 {
		t.Errorf("re-elected head = %d, want 2", cl.Clusters[0].Head)
	}
}

func TestClassifyLink(t *testing.T) {
	cases := []struct {
		mt, mr int
		want   LinkKind
	}{
		{1, 1, SISOLink}, {2, 1, MISOLink}, {1, 3, SIMOLink}, {2, 2, MIMOLink},
	}
	for _, c := range cases {
		if got := ClassifyLink(c.mt, c.mr); got != c.want {
			t.Errorf("ClassifyLink(%d,%d) = %v", c.mt, c.mr, got)
		}
	}
}

func clusteredNet(t *testing.T) (*Clustering, *CoMIMONet) {
	t.Helper()
	// Three tight clusters on a line, 100 m apart.
	var nodes []Node
	id := NodeID(0)
	for c := 0; c < 3; c++ {
		for k := 0; k < 2+c; k++ { // sizes 2, 3, 4
			nodes = append(nodes, Node{
				ID:       id,
				Pos:      geom.Pt(float64(c)*100+float64(k), 0),
				BatteryJ: 1,
			})
			id++
		}
	}
	d, _ := NewDeployment(nodes)
	g, err := NewGraph(d, 10)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DCluster(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Clusters) != 3 {
		t.Fatalf("expected 3 clusters, got %d", len(cl.Clusters))
	}
	net, err := BuildCoMIMONet(cl, 150)
	if err != nil {
		t.Fatal(err)
	}
	return cl, net
}

func TestCoMIMONetEdges(t *testing.T) {
	_, net := clusteredNet(t)
	// Adjacent clusters are ~100 m apart (edge), far pair ~200 m (none).
	if len(net.Edges) != 2 {
		t.Fatalf("%d edges, want 2", len(net.Edges))
	}
	e, ok := net.EdgeBetween(0, 1)
	if !ok {
		t.Fatal("missing edge 0-1")
	}
	if e.Kind != MIMOLink {
		t.Errorf("0-1 kind = %v (sizes 2 and 3)", e.Kind)
	}
	if e.D < 100 || e.D > 110 {
		t.Errorf("edge D = %v", e.D)
	}
	if _, ok := net.EdgeBetween(0, 2); ok {
		t.Error("0-2 should not be an edge")
	}
	if _, err := BuildCoMIMONet(net.Clustering, 0); err == nil {
		t.Error("zero link length should fail")
	}
}

func TestBackboneRoute(t *testing.T) {
	_, net := clusteredNet(t)
	r := net.Route(0, 2)
	if len(r) != 3 || r[0] != 0 || r[1] != 1 || r[2] != 2 {
		t.Errorf("route = %v, want [0 1 2]", r)
	}
	if r := net.Route(1, 1); len(r) != 1 {
		t.Errorf("self route = %v", r)
	}
	// Reverse direction.
	r = net.Route(2, 0)
	if len(r) != 3 || r[0] != 2 || r[2] != 0 {
		t.Errorf("reverse route = %v", r)
	}
}

func TestRouteDisconnected(t *testing.T) {
	nodes := []Node{
		{ID: 0, Pos: geom.Pt(0, 0), BatteryJ: 1},
		{ID: 1, Pos: geom.Pt(1000, 0), BatteryJ: 1},
	}
	d, _ := NewDeployment(nodes)
	g, _ := NewGraph(d, 10)
	cl, _ := DCluster(g, 5)
	net, _ := BuildCoMIMONet(cl, 100)
	if r := net.Route(0, 1); r != nil {
		t.Errorf("disconnected route = %v, want nil", r)
	}
}

type fixedCoster struct{ perHop float64 }

func (f fixedCoster) HopEnergy(mt, mr int, d, D float64) (units.JoulePerBit, error) {
	return units.JoulePerBit(f.perHop), nil
}

func TestRouteEnergy(t *testing.T) {
	_, net := clusteredNet(t)
	route := net.Route(0, 2)
	e, err := net.RouteEnergy(route, fixedCoster{perHop: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(e)-3) > 1e-12 {
		t.Errorf("route energy = %v, want 3 (2 hops)", e)
	}
	// A route with a non-edge hop errors.
	if _, err := net.RouteEnergy([]ClusterID{0, 2}, fixedCoster{1}); err == nil {
		t.Error("non-edge hop should fail")
	}
}

func TestDClusterGridInvariants(t *testing.T) {
	rng := mathx.NewRand(83)
	d := RandomDeployment(rng, 120, 150, 150, 1, 5)
	g, err := NewGraph(d, 30)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DClusterGrid(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := DClusterGrid(g, 0); err == nil {
		t.Error("d=0 should fail")
	}
	if _, err := DClusterGrid(g, 40); err == nil {
		t.Error("d>r should fail")
	}
}

func TestDClusterGridVsGreedy(t *testing.T) {
	// Both produce valid clusterings; the greedy pass typically merges
	// more aggressively (fewer or equal clusters) because it is not
	// constrained by cell borders.
	rng := mathx.NewRand(84)
	d := RandomDeployment(rng, 150, 120, 120, 1, 5)
	g, err := NewGraph(d, 30)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := DCluster(g, 14)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := DClusterGrid(g, 14)
	if err != nil {
		t.Fatal(err)
	}
	if err := greedy.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := grid.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(greedy.Clusters) > len(grid.Clusters) {
		t.Errorf("greedy produced %d clusters, grid %d; greedy should not fragment more",
			len(greedy.Clusters), len(grid.Clusters))
	}
}
