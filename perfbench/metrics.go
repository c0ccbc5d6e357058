package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"fpgarouter/internal/stats"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names, units and directions; the smoke test holds the two in
// step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, printed by every workload.
// Each is defined on every workload (README.md gives the per-workload
// meaning) so that no value is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"set_s", "s"},
	{"set_geomean_s", "s"},
	{"wirelength", "span"},
	{"max_path_sum", "span"},
	{"peak_rss_mb", "MB"},
}

// aliases are the workload-specific names of end-to-end quantities, printed
// in the human-readable report where they apply.
var aliases = []metricDef{
	{"route_s", "s"},
	{"route_geomean_s", "s"},
	{"minwidth_s", "s"},
	{"width_sum", "tracks"},
	{"jobs_per_s", "1/s"},
	{"job_s.p50", "s"},
	{"job_s.p85", "s"},
	{"cache_hit_ms.p50", "ms"},
}

// perLayer are the metrics of a traced run. A layer a workload bypasses
// reads zero.
var perLayer = []metricDef{
	{"circuits.synth_s", "s"},
	{"fpga.fabric_ms", "ms"},
	{"graph.sssp_runs", "count"},
	{"graph.heap_pushes", "count"},
	{"graph.pushes_per_run", "count"},
	{"graph.sweep_ns_per_push", "ns"},
	{"core.candidate_evals", "count"},
	{"core.steiner_points", "count"},
	{"core.admit_ratio", "ratio"},
	{"core.evals_per_net", "count"},
	{"core.net_s", "s"},
	{"core.net_max_ms", "ms"},
	{"core.scan_wall_s", "s"},
	{"core.scan_cpu_s", "s"},
	{"core.scan_parallelism", "ratio"},
	{"steiner.kmb_ms_per_net", "ms"},
	{"core.ikmb_ms_per_net", "ms"},
	{"router.passes", "count"},
	{"router.rip_ups", "count"},
	{"router.nets_routed", "count"},
	{"router.net_failures", "count"},
	{"router.self_s", "s"},
	{"router.width_probes", "count"},
	{"router.passes_per_probe", "count"},
	{"pathfinder.iterations", "count"},
	{"pathfinder.net_reroutes", "count"},
	{"pathfinder.overflow_sum", "count"},
	{"pathfinder.price_updates", "count"},
	{"pathfinder.incremental_reroutes", "count"},
	{"pathfinder.edges_ripped", "count"},
	{"pathfinder.edges_retained", "count"},
	{"pathfinder.retained_frac", "ratio"},
	{"pathfinder.reduce_edges_skipped", "count"},
	{"service.job_s.p50", "s"},
	{"service.job_s.p85", "s"},
	{"service.cache_hit_ms.p50", "ms"},
	{"service.jobs_per_s", "1/s"},
	{"service.submit_ms.p50", "ms"},
	{"service.result_ms.p50", "ms"},
	{"service.result_kb", "KiB"},
	{"service.polls_per_job", "count"},
	{"service.queue_wait_s.p50", "s"},
	{"service.run_s.p50", "s"},
	{"service.jobs", "count"},
	{"service.cache_hits", "count"},
	{"service.cache_misses", "count"},
	{"journal.append_ms", "ms"},
	{"journal.store_put_ms", "ms"},
	{"journal.store_get_ms", "ms"},
	{"journal.records", "count"},
	{"journal.kb", "KiB"},
	{"journal.store_kb", "KiB"},
	{"journal.replay_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// engine says which routing engine a workload drives, so collector
// counters are attributed to the layer that produced them.
type engine int

const (
	engineSequential engine = iota // router pass loop
	engineNegotiated               // pathfinder iterations
	engineMinWidth                 // router width probes
	engineService                  // routed jobs on the sequential router
)

// layerMetrics turns one traced batch's collector snapshot into per-layer
// metrics. opSeconds is the batch's summed operation time.
func layerMetrics(m map[string]float64, s stats.Snapshot, eng engine, opSeconds float64) {
	m["graph.sssp_runs"] = float64(s.SSSPRuns)
	m["graph.heap_pushes"] = float64(s.HeapPushes)
	m["graph.pushes_per_run"] = ratio(float64(s.HeapPushes), float64(s.SSSPRuns))
	m["core.candidate_evals"] = float64(s.CandidateEvals)
	m["core.steiner_points"] = float64(s.SteinerPoints)
	m["core.admit_ratio"] = ratio(float64(s.SteinerPoints), float64(s.CandidateEvals))
	nets := float64(s.NetsRouted + s.NetFailures)
	m["core.evals_per_net"] = ratio(float64(s.CandidateEvals), nets)
	m["core.net_s"] = s.NetTime.Seconds()
	m["core.net_max_ms"] = ms(s.MaxNetTime)
	m["core.scan_wall_s"] = s.ScanWall.Seconds()
	m["core.scan_cpu_s"] = s.ScanCPU.Seconds()
	m["core.scan_parallelism"] = ratio(s.ScanCPU.Seconds(), s.ScanWall.Seconds())
	m["router.passes"] = float64(s.Passes)
	m["router.rip_ups"] = float64(s.RipUps)
	m["router.width_probes"] = float64(s.WidthProbes)
	m["router.passes_per_probe"] = ratio(float64(s.Passes), float64(s.WidthProbes))
	m["pathfinder.iterations"] = float64(s.PathfinderIters)
	m["pathfinder.overflow_sum"] = float64(s.OverflowEdges)
	m["pathfinder.price_updates"] = float64(s.PriceUpdates)
	m["pathfinder.incremental_reroutes"] = float64(s.IncrementalReroutes)
	m["pathfinder.edges_ripped"] = float64(s.EdgesRipped)
	m["pathfinder.edges_retained"] = float64(s.EdgesRetained)
	m["pathfinder.retained_frac"] = ratio(float64(s.EdgesRetained), float64(s.EdgesRipped+s.EdgesRetained))
	m["pathfinder.reduce_edges_skipped"] = float64(s.ReduceEdgesSkipped)
	// The collector counts net routings from whichever engine ran; book
	// them to that engine's layer.
	if eng == engineNegotiated {
		m["pathfinder.net_reroutes"] = nets
	} else {
		m["router.nets_routed"] = float64(s.NetsRouted)
		m["router.net_failures"] = float64(s.NetFailures)
	}
	if eng == engineSequential {
		m["router.self_s"] = opSeconds - s.NetTime.Seconds()
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (mean of the middle two), 0 when empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics, 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of positive values, 0 when empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// setTimes returns the sum and the geometric mean, over circuits, of the
// median operation time among each circuit's instances. An instance that
// happens to need extra rip-up passes is an outlier of its seed, not of the
// code; the per-circuit median keeps one from deciding the run, and the
// rows and router.passes still show it.
func setTimes(byCircuit map[string][]float64) (total, geo float64) {
	var meds []float64
	for _, ts := range byCircuit {
		meds = append(meds, median(ts))
	}
	sort.Float64s(meds) // a fixed summation order
	for _, m := range meds {
		total += m
	}
	return total, geomean(meds)
}

// memDelta reads the runtime's allocation counters now and returns a
// function that books their growth as runtime.alloc_mb and
// runtime.gc_cycles.
func memDelta(m map[string]float64) func() {
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	return func() {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		m["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		m["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	}
}
