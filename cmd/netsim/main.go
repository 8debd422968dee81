// Command netsim deploys a random CoMIMONet, prints its d-clusters and
// routing backbone, and estimates the cooperative relay energy of a
// sample route — the Section 2 network model made inspectable.
//
// Usage:
//
//	netsim -nodes 80 -field 400 -range 80 -d 30 -link 250 -seed 3
//
// On a terminal, a live progress line on stderr tracks the pipeline
// stages (deploy, cluster, link, route, cost); -progress on/off
// overrides the terminal detection.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/ebtable"
	"repro/internal/energy"
	"repro/internal/mathx"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/units"
)

func main() {
	var (
		nodes = flag.Int("nodes", 60, "number of SU nodes")
		field = flag.Float64("field", 300, "square field side in metres")
		rng_  = flag.Float64("range", 60, "communication range r in metres")
		d     = flag.Float64("d", 25, "cluster diameter bound d")
		link  = flag.Float64("link", 200, "max cooperative link length D")
		seed  = flag.Int64("seed", 1, "deployment seed")
		ber   = flag.Float64("ber", 0.001, "route BER target")
		prog  = flag.String("progress", "auto", "live progress line on stderr: auto, on or off")
	)
	flag.Parse()

	// Ctrl-C stops cleanly between pipeline stages — deploy, cluster,
	// link, route, cost — so whatever was printed is complete output,
	// never a half-written table.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	interrupted := func() {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "netsim: interrupted")
			os.Exit(130)
		}
	}

	// The pipeline reports its five stages — deploy, cluster, link,
	// route, cost — through a progress tracker; on a terminal a live
	// line on stderr shows how far a large deployment has come.
	tracker := obs.NewTracker()
	tracker.AddTotal(5)
	if *prog == "on" || (*prog == "auto" && obs.IsTerminal(os.Stderr)) {
		stop := obs.StartProgressPrinter(os.Stderr, "netsim", tracker, 0)
		defer stop()
	}

	rng := mathx.NewRand(*seed)
	dep := network.RandomDeployment(rng, *nodes, *field, *field, 1, 10)
	g, err := network.NewGraph(dep, *rng_)
	if err != nil {
		fatal(err)
	}
	tracker.Add(1) // deploy
	cl, err := network.DCluster(g, *d)
	if err != nil {
		fatal(err)
	}
	if err := cl.Validate(); err != nil {
		fatal(err)
	}
	tracker.Add(1) // cluster
	interrupted()
	net, err := network.BuildCoMIMONet(cl, *link)
	if err != nil {
		fatal(err)
	}
	tracker.Add(1) // link

	fmt.Printf("deployment: %d nodes on %gx%g m, r=%g m\n", *nodes, *field, *field, *rng_)
	fmt.Printf("clusters (d=%g m): %d\n", *d, len(cl.Clusters))
	for i := range cl.Clusters {
		c := &cl.Clusters[i]
		fmt.Printf("  cluster %-3d members=%-2d head=%-3d centroid=%v diameter=%.1f m\n",
			c.ID, c.Size(), c.Head, cl.Centroid(c), cl.Diameter(c))
	}
	fmt.Printf("cooperative MIMO links (D<=%g m): %d\n", *link, len(net.Edges))
	for _, e := range net.Edges {
		fmt.Printf("  %d <-> %d  D=%.1f m  %s\n", e.A, e.B, e.D, e.Kind)
	}

	interrupted()
	if len(cl.Clusters) >= 2 {
		src := cl.Clusters[0].ID
		dst := cl.Clusters[len(cl.Clusters)-1].ID
		route := net.Route(src, dst)
		if route == nil {
			fmt.Printf("route %d -> %d: disconnected\n", src, dst)
			return
		}
		tracker.Add(1) // route
		fmt.Printf("backbone route %d -> %d: %v\n", src, dst, route)
		model, err := energy.New(energy.Paper(40e3), ebtable.Analytic{})
		if err != nil {
			fatal(err)
		}
		e, err := net.RouteEnergy(route, coster{model: model, ber: *ber})
		if err != nil {
			fatal(err)
		}
		tracker.Add(1) // cost
		fmt.Printf("estimated cooperative relay energy: %v at BER %g\n", e, *ber)
	}
}

type coster struct {
	model *energy.Model
	ber   float64
}

func (c coster) HopEnergy(mt, mr int, d, D float64) (units.JoulePerBit, error) {
	best, err := c.model.OptimalMIMOB(c.ber, mt, mr, D, nil)
	if err != nil {
		return 0, err
	}
	return c.model.HopEnergy(c.ber, best.B, mt, mr, d, D)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netsim:", err)
	os.Exit(1)
}
