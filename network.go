package cogmimo

import (
	"fmt"

	"repro/internal/crosslayer"
	"repro/internal/energy"
	"repro/internal/mathx"
	"repro/internal/multihop"
	"repro/internal/network"
	"repro/internal/units"
)

// NetworkConfig describes a CoMIMONet deployment (Section 2.1).
type NetworkConfig struct {
	// Nodes is the SU count.
	Nodes int
	// FieldWM and FieldHM size the deployment field in metres.
	FieldWM, FieldHM float64
	// CommRangeM is the per-node communication range r.
	CommRangeM float64
	// ClusterDiamM is the d-clustering bound (d <= r).
	ClusterDiamM float64
	// MaxLinkM is the longest cooperative MIMO link D.
	MaxLinkM float64
	// Seed drives node placement.
	Seed int64
}

// Network is a built CoMIMONet.
type Network struct {
	net *network.CoMIMONet
	sys *System
}

// ClusterInfo summarises one cooperative MIMO node.
type ClusterInfo struct {
	ID       int
	Members  int
	HeadNode int
	// DiameterM is the largest member spacing.
	DiameterM float64
}

// BuildNetwork deploys SUs uniformly at random, d-clusters them, and
// builds the G_MIMO backbone.
func (s *System) BuildNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cogmimo: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.FieldWM <= 0 || cfg.FieldHM <= 0 {
		return nil, fmt.Errorf("cogmimo: field %gx%g must be positive", cfg.FieldWM, cfg.FieldHM)
	}
	rng := mathx.NewRand(cfg.Seed)
	dep := network.RandomDeployment(rng, cfg.Nodes, cfg.FieldWM, cfg.FieldHM, 1, 10)
	g, err := network.NewGraph(dep, cfg.CommRangeM)
	if err != nil {
		return nil, err
	}
	cl, err := network.DCluster(g, cfg.ClusterDiamM)
	if err != nil {
		return nil, err
	}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	net, err := network.BuildCoMIMONet(cl, cfg.MaxLinkM)
	if err != nil {
		return nil, err
	}
	return &Network{net: net, sys: s}, nil
}

// Clusters lists the cooperative MIMO nodes.
func (n *Network) Clusters() []ClusterInfo {
	cl := n.net.Clustering
	out := make([]ClusterInfo, 0, len(cl.Clusters))
	for i := range cl.Clusters {
		c := &cl.Clusters[i]
		out = append(out, ClusterInfo{
			ID:        int(c.ID),
			Members:   c.Size(),
			HeadNode:  int(c.Head),
			DiameterM: cl.Diameter(c),
		})
	}
	return out
}

// Links returns the number of cooperative MIMO links in G_MIMO.
func (n *Network) Links() int { return len(n.net.Edges) }

// Route returns the backbone cluster path between two clusters, or nil
// when disconnected.
func (n *Network) Route(src, dst int) []int {
	r := n.net.Route(network.ClusterID(src), network.ClusterID(dst))
	out := make([]int, len(r))
	for i, id := range r {
		out[i] = int(id)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// hopCoster prices each hop with energy.Model.HopEnergy at the
// constellation that minimises the long-haul transmit cost.
type hopCoster struct {
	model *energy.Model
	ber   float64
}

func (h hopCoster) HopEnergy(mt, mr int, d, D float64) (units.JoulePerBit, error) {
	best, err := h.model.OptimalMIMOB(h.ber, mt, mr, D, nil)
	if err != nil {
		return 0, err
	}
	return h.model.HopEnergy(h.ber, best.B, mt, mr, d, D)
}

// RouteTransport pushes bits through the route at symbol level: every
// hop's long-haul SNR comes from the energy model's link budget — each
// transmitting node spends paJoulePerBit of PA energy, so the delivered
// per-bit energy is paJoulePerBit * mt / ((1+alpha) * pathLoss(D)) and
// the per-bit SNR that divided by N0. This ties the paper's energy
// equations to actual delivered bits.
func (n *Network) RouteTransport(route []int, paJoulePerBit float64, constellationBits, bits int, seed int64) (HopTransportResult, error) {
	if len(route) < 2 {
		return HopTransportResult{}, fmt.Errorf("cogmimo: route needs at least two clusters")
	}
	if paJoulePerBit <= 0 {
		return HopTransportResult{}, fmt.Errorf("cogmimo: PA energy %g must be positive", paJoulePerBit)
	}
	model := n.sys.model
	var hops []multihop.Hop
	for i := 0; i+1 < len(route); i++ {
		a := &n.net.Clustering.Clusters[route[i]]
		b := &n.net.Clustering.Clusters[route[i+1]]
		e, ok := n.net.EdgeBetween(a.ID, b.ID)
		if !ok {
			return HopTransportResult{}, fmt.Errorf("cogmimo: hop %d-%d is not a cooperative link", a.ID, b.ID)
		}
		mt := a.Size()
		if mt > 4 {
			mt = 4
		}
		mr := b.Size()
		if mr > 4 {
			mr = 4
		}
		ebDelivered := paJoulePerBit * float64(mt) /
			((1 + energy.Alpha(constellationBits)) * model.P.LongHaulLoss().Gain(e.D))
		hops = append(hops, multihop.Hop{
			Mt: mt, Mr: mr,
			SNRPerBit: ebDelivered / model.P.N0,
		})
	}
	r, err := multihop.Run(multihop.Config{
		Hops: hops, B: constellationBits, Bits: bits, Seed: seed,
	})
	if err != nil {
		return HopTransportResult{}, err
	}
	return HopTransportResult{
		EndToEndBER:  r.EndToEndBER,
		PerHopBER:    r.PerHopBER,
		PredictedBER: r.PredictedBER,
		Bits:         r.Bits,
	}, nil
}

// HopTransportResult reports a route-level symbol simulation.
type HopTransportResult struct {
	// EndToEndBER compares delivered bits against the source.
	EndToEndBER float64
	// PerHopBER lists each hop's own error rate.
	PerHopBER []float64
	// PredictedBER is the closed-form per-hop sum.
	PredictedBER float64
	// Bits transported (rounded up to whole blocks).
	Bits int
}

// RoutePlan is a cross-layer schedule for one backbone route.
type RoutePlan struct {
	// PerHopB lists the chosen constellation per hop.
	PerHopB []int
	// TotalEnergyJ for the payload across all hops and nodes.
	TotalEnergyJ float64
	// TotalTimeS is the end-to-end airtime.
	TotalTimeS float64
}

// OptimizeRoute jointly picks per-hop constellation sizes along the
// backbone route to minimise total energy while delivering bits within
// deadlineS of airtime at symbolRate — the cross-layer optimisation of
// the CoMIMONet's design lineage.
func (n *Network) OptimizeRoute(route []int, targetBER float64, bits int, symbolRate, deadlineS float64) (RoutePlan, error) {
	if len(route) < 2 {
		return RoutePlan{}, fmt.Errorf("cogmimo: route needs at least two clusters")
	}
	var hops []crosslayer.Hop
	for i := 0; i+1 < len(route); i++ {
		a := &n.net.Clustering.Clusters[route[i]]
		b := &n.net.Clustering.Clusters[route[i+1]]
		e, ok := n.net.EdgeBetween(a.ID, b.ID)
		if !ok {
			return RoutePlan{}, fmt.Errorf("cogmimo: hop %d-%d is not a cooperative link", a.ID, b.ID)
		}
		mt, mr := a.Size(), b.Size()
		if mt > 4 {
			mt = 4
		}
		if mr > 4 {
			mr = 4
		}
		d := n.net.Clustering.Diameter(a)
		if db := n.net.Clustering.Diameter(b); db > d {
			d = db
		}
		hops = append(hops, crosslayer.Hop{Mt: mt, Mr: mr, IntraD: d, LinkD: e.D})
	}
	plan, err := crosslayer.Optimize(crosslayer.Config{
		Model: n.sys.model, Hops: hops,
		BER: targetBER, Bits: bits,
		SymbolRate: symbolRate, DeadlineS: deadlineS,
	})
	if err != nil {
		return RoutePlan{}, err
	}
	out := RoutePlan{
		TotalEnergyJ: plan.TotalEnergyJ,
		TotalTimeS:   plan.TotalTimeS,
	}
	for _, c := range plan.Choices {
		out.PerHopB = append(out.PerHopB, c.B)
	}
	return out, nil
}

// RouteEnergy estimates the per-bit energy of cooperatively relaying
// data along the backbone route at the given BER target.
func (n *Network) RouteEnergy(route []int, targetBER float64) (float64, error) {
	if len(route) < 2 {
		return 0, fmt.Errorf("cogmimo: route needs at least two clusters")
	}
	ids := make([]network.ClusterID, len(route))
	for i, r := range route {
		ids[i] = network.ClusterID(r)
	}
	e, err := n.net.RouteEnergy(ids, hopCoster{model: n.sys.model, ber: targetBER})
	if err != nil {
		return 0, err
	}
	return float64(e), nil
}
