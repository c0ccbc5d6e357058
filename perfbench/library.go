package main

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/router"
	"fpgarouter/internal/stats"
)

// widthSlack is the number of tracks over each circuit's Spec.PaperIKMB at
// which the route workloads and the service jobs route. At the paper's
// own widths the synthesized instances of other seeds need from one to
// nineteen rip-up passes (busc) or fail outright, so a seed-varied batch
// there measures how lucky the seed was. With two tracks of slack every
// sampled instance routes in one sequential pass.
const widthSlack = 2

// workload is one named benchmark workload.
type workload struct {
	why string
	run func(options) (*report, error)
}

var workloads = map[string]workload{
	"seq-route": {
		why: "the paper's sequential IKMB router: core candidate scans over graph SSSP, never pathfinder",
		run: libWorkload{
			circuits: []string{"busc", "dma", "term1", "alu2"}, perCircuit: 5,
			eng: engineSequential,
		}.run,
	},
	"negotiated-route": {
		why: "the same circuits and widths through the pathfinder (parallel + incremental): the only pathfinder workload",
		run: libWorkload{
			circuits: []string{"busc", "dma", "term1", "alu2"}, perCircuit: 3,
			eng:  engineNegotiated,
			opts: router.Options{Parallel: true, IncrementalReroute: true},
		}.run,
	},
	"minwidth": {
		why: "MinWidth from the paper width: concurrent probes, each on its own fabric, infeasible ones exhaust every pass",
		run: libWorkload{
			circuits: []string{"term1", "9symml"}, perCircuit: 2,
			eng: engineMinWidth,
		}.run,
	},
	"service-mix": {
		why: "durable routed over loopback HTTP, 2 closed-loop clients, route jobs plus exact resubmissions answered from the store",
		run: serviceMix,
	},
}

// instance is one synthesized circuit of a batch.
type instance struct {
	spec  circuits.Spec
	seed  int64 // circuits.Synthesize seed
	width int   // routing width (minwidth: the search's start width)
	ckt   *circuits.Circuit
}

func (in *instance) label() string { return fmt.Sprintf("%s/%d", in.spec.Name, in.seed) }

// synthSeed derives the synthesis seed of the k-th instance of a circuit
// from the workload seed.
func synthSeed(seed int64, name string, k int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, name, k)
	return int64(h.Sum64() >> 33)
}

// synthesize builds the instances of a batch and returns the time spent in
// circuits.Synthesize.
func synthesize(seed int64, names []string, perCircuit, slack int) ([]*instance, time.Duration, error) {
	var insts []*instance
	var synth time.Duration
	for k := 0; k < perCircuit; k++ {
		for _, name := range names {
			spec, ok := circuits.SpecByName(name)
			if !ok {
				return nil, 0, fmt.Errorf("unknown circuit %q", name)
			}
			in := &instance{spec: spec, seed: synthSeed(seed, name, k), width: spec.PaperIKMB + slack}
			t0 := time.Now()
			ckt, err := circuits.Synthesize(spec, in.seed)
			synth += time.Since(t0)
			if err != nil {
				return nil, 0, fmt.Errorf("synthesizing %s: %w", in.label(), err)
			}
			in.ckt = ckt
			insts = append(insts, in)
		}
	}
	return insts, synth, nil
}

// buildFabrics builds each instance's fabric once, the allocation warm-up
// every route repeats internally, appending each build time in ms to times.
func buildFabrics(times []float64, insts []*instance) ([]float64, error) {
	for _, in := range insts {
		t0 := time.Now()
		if _, err := fpga.NewFabric(in.ckt.ArchAt(in.width)); err != nil {
			return nil, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return times, nil
}

// libWorkload drives the router library directly: a fixed, seed-derived
// batch of circuit instances, each routed (or width-searched) once per
// round.
type libWorkload struct {
	circuits   []string
	perCircuit int
	eng        engine
	opts       router.Options
}

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 9

func (lw libWorkload) run(o options) (*report, error) {
	rep := newReport()
	n := lw.perCircuit
	if o.scale > 0 {
		n = o.scale
	}
	names := lw.circuits
	if len(o.circuits) > 0 {
		names = o.circuits
	}
	slack := widthSlack
	if lw.eng == engineMinWidth {
		slack = 0 // the search starts at the paper width
	}
	// Set-up: synthesis plus one fabric build per instance.
	var insts []*instance
	var setups, synths, fabrics []float64
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		var synth time.Duration
		var err error
		insts, synth, err = synthesize(o.seed, names, n, slack)
		if err != nil {
			return nil, err
		}
		if fabrics, err = buildFabrics(fabrics, insts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		synths = append(synths, synth.Seconds())
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["circuits.synth_s"] = median(synths)
	rep.metrics["fpga.fabric_ms"] = median(fabrics)

	// Warm the scratch pool and heap by routing the batch's smallest
	// instance once, with slack so that the route cannot fail.
	warm := insts[0]
	for _, in := range insts {
		if len(in.ckt.Nets) < len(warm.ckt.Nets) {
			warm = in
		}
	}
	if _, err := router.RouteCtx(nil, warm.ckt, warm.spec.PaperIKMB+widthSlack, lw.opts); err != nil {
		return nil, fmt.Errorf("warm-up %s: %w", warm.label(), err)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	root, endRoot := tr.begin(0, 0, "workload "+o.workload)
	times := make([][]float64, len(insts)) // per instance, per untraced round
	results := make([]*router.Result, len(insts))
	widths := make([]int, len(insts))
	var batchTimes []float64
	ctx := router.NewContext(nil)
	defer ctx.Close()
	start := time.Now()
	// Untraced rounds fill --seconds (a further round starts only if it
	// should end in time); a traced run adds one traced round after a
	// single untraced one, so the two give the tracing overhead.
	for round := 0; round == 0 || (!o.trace && time.Since(start).Seconds()+batchTimes[round-1] <= o.seconds); round++ {
		var batch float64
		for i, in := range insts {
			t0 := time.Now()
			res, w, err := lw.op(ctx, in)
			d := time.Since(t0).Seconds()
			batch += d
			times[i] = append(times[i], d)
			rep.attempted++
			if err != nil {
				rep.fail("%s: %v", in.label(), err)
				continue
			}
			if err := checkRouting(in.ckt, w, res); err != nil {
				rep.fail("%s: %v", in.label(), err)
				continue
			}
			results[i], widths[i] = res, w
		}
		batchTimes = append(batchTimes, batch)
	}
	if o.trace {
		traced := lw.tracedRound(rep, insts, tr, root)
		rep.metrics["trace.overhead_frac"] = traced/median(batchTimes) - 1
		if lw.eng != engineMinWidth {
			if err := sideLayers(rep.metrics, insts, tr, root); err != nil {
				return nil, err
			}
		}
	}
	endRoot()
	rep.metrics["trace.spans"] = float64(tr.count())
	if err := tr.write(filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))); err != nil {
		return nil, err
	}

	byCircuit := map[string][]float64{}
	for i, in := range insts {
		t := median(times[i])
		byCircuit[in.spec.Name] = append(byCircuit[in.spec.Name], t)
		res := results[i]
		if res == nil {
			continue
		}
		rep.metrics["wirelength"] += res.Wirelength
		rep.metrics["max_path_sum"] += res.MaxPathSum
		rep.metrics["width_sum"] += float64(widths[i])
		rep.rows = append(rep.rows, fmt.Sprintf("circuit=%s synth_seed=%d width=%d time_s=%.4f passes=%d wirelength=%.1f max_path_sum=%.1f",
			in.spec.Name, in.seed, widths[i], t, res.Passes, res.Wirelength, res.MaxPathSum))
	}
	m := rep.metrics
	m["set_s"], m["set_geomean_s"] = setTimes(byCircuit)
	if lw.eng == engineMinWidth {
		m["minwidth_s"] = m["set_s"]
	} else {
		m["route_s"], m["route_geomean_s"] = m["set_s"], m["set_geomean_s"]
	}
	return rep, nil
}

// op routes (or width-searches) one instance, returning the result and the
// width it claims.
func (lw libWorkload) op(ctx *router.Context, in *instance) (*router.Result, int, error) {
	if lw.eng == engineMinWidth {
		w, res, err := router.MinWidthCtx(ctx, in.ckt, in.width, lw.opts)
		return res, w, err
	}
	res, err := router.RouteCtx(ctx, in.ckt, in.width, lw.opts)
	return res, in.width, err
}

// tracedRound routes the batch once more under a stats collector, with a
// span around every call, and books the collector's counters to layers. It
// returns the round's summed operation time.
func (lw libWorkload) tracedRound(rep *report, insts []*instance, tr *tracer, root int) float64 {
	col := stats.New()
	ctx := router.NewContext(col)
	defer ctx.Close()
	defer memDelta(rep.metrics)()
	batch, endBatch := tr.begin(root, 0, "batch traced")
	var total float64
	for i, in := range insts {
		opID, endOp := tr.begin(batch, i+1, "op "+in.label())
		name := "router.RouteCtx"
		if lw.eng == engineMinWidth {
			name = "router.MinWidthCtx"
		}
		_, endCall := tr.begin(opID, i+1, name)
		t0 := time.Now()
		res, w, err := lw.op(ctx, in)
		total += time.Since(t0).Seconds()
		endCall()
		rep.attempted++
		if err != nil {
			rep.fail("%s (traced): %v", in.label(), err)
			endOp()
			continue
		}
		_, endCheck := tr.begin(opID, i+1, "legality.check")
		if err := checkRouting(in.ckt, w, res); err != nil {
			rep.fail("%s (traced): %v", in.label(), err)
		}
		endCheck()
		endOp()
	}
	endBatch()
	layerMetrics(rep.metrics, col.Snapshot(), lw.eng, total)
	return total
}
