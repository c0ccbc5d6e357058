package main

import (
	"time"

	"fpgarouter/internal/core"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/steiner"
)

// sideLayers times the graph and Steiner layers in isolation on each
// circuit's first instance, on an uncongested fabric at the routing width:
//
//   - graph.sweep_ns_per_push: Graph.DijkstraWithinScratch from every
//     net's source to its pins, per heap push;
//   - steiner.kmb_ms_per_net and core.ikmb_ms_per_net: steiner.KMB and
//     core.IGMSTStats per net over the router's candidate pool
//     (Fabric.SteinerPool with its default margin and cap).
func sideLayers(m map[string]float64, insts []*instance, tr *tracer, root int) error {
	id, end := tr.begin(root, 0, "side layers")
	defer end()
	seen := map[string]bool{}
	s := graph.AcquireScratch()
	defer graph.ReleaseScratch(s)
	var sweep, kmb, ikmb time.Duration
	var pushes int64
	nets := 0
	for _, in := range insts {
		if seen[in.spec.Name] {
			continue
		}
		seen[in.spec.Name] = true
		_, endCkt := tr.begin(id, 0, "side "+in.label())
		fab, err := fpga.NewFabric(in.ckt.ArchAt(in.width))
		if err != nil {
			return err
		}
		g := fab.Graph()
		for _, net := range in.ckt.Nets {
			fab.BeginNet(net.Pins)
			terms := make([]graph.NodeID, len(net.Pins))
			for i, p := range net.Pins {
				terms[i] = fab.PinNode(p)
			}
			p0 := s.HeapPushes
			t0 := time.Now()
			spt := g.DijkstraWithinScratch(s, terms[0], terms)
			sweep += time.Since(t0)
			pushes += s.HeapPushes - p0
			s.RecycleSPT(spt)

			pool := fab.SteinerPool(net.Pins, 2, 1024)
			stop := append(append([]graph.NodeID(nil), terms...), pool...)
			cache := graph.NewSPTCacheWithin(g, stop).WithScratch(s)
			t0 = time.Now()
			_, errK := steiner.KMB(cache, terms)
			kmb += time.Since(t0)
			cache.Release()
			cache = graph.NewSPTCacheWithin(g, stop).WithScratch(s)
			t0 = time.Now()
			_, _, errI := core.IGMSTStats(cache, terms, steiner.KMB, core.Options{Candidates: pool, Batched: true})
			ikmb += time.Since(t0)
			cache.Release()
			if errK != nil {
				return errK
			}
			if errI != nil {
				return errI
			}
			nets++
		}
		endCkt()
	}
	m["graph.sweep_ns_per_push"] = ratio(float64(sweep.Nanoseconds()), float64(pushes))
	m["steiner.kmb_ms_per_net"] = ratio(ms(kmb), float64(nets))
	m["core.ikmb_ms_per_net"] = ratio(ms(ikmb), float64(nets))
	return nil
}
