package router

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/stats"
)

// TestRouteParityAcrossWorkers asserts the router-level tentpole guarantee:
// Route returns a byte-identical Result at every CandidateWorkers setting,
// for every iterated algorithm, in both admission modes, at several widths
// (including widths tight enough to fail and exercise FailedNets). Run
// under -race this is the end-to-end proof for the parallel candidate scan.
func TestRouteParityAcrossWorkers(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 3)
	for _, alg := range []string{AlgIKMB, AlgISPH, AlgIZEL, AlgIDOM} {
		for _, single := range []bool{false, true} {
			for _, w := range []int{3, 5, 8} {
				t.Run(fmt.Sprintf("%s/single=%v/w=%d", alg, single, w), func(t *testing.T) {
					run := func(workers int) (*Result, error) {
						return Route(ckt, w, Options{
							Algorithm:        alg,
							MaxPasses:        4,
							SingleStep:       single,
							CandidateWorkers: workers,
						})
					}
					refRes, refErr := run(1)
					for _, cw := range []int{0, 2, 8} {
						res, err := run(cw)
						if !errors.Is(err, refErr) && (err == nil) != (refErr == nil) {
							t.Fatalf("workers=%d err %v, sequential err %v", cw, err, refErr)
						}
						if !reflect.DeepEqual(res, refRes) {
							t.Fatalf("workers=%d Result diverges from sequential", cw)
						}
					}
				})
			}
		}
	}
}

// TestRouteParityCriticalNets covers the mixed path: critical nets routed
// with the arborescence algorithm alongside IKMB for the rest.
func TestRouteParityCriticalNets(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 4)
	opts := Options{MaxPasses: 6, CriticalNets: []int{0, 3, 5}}
	ref, refErr := Route(ckt, 8, opts)
	if refErr != nil {
		t.Fatal(refErr)
	}
	for _, cw := range []int{0, 2, 8} {
		o := opts
		o.CandidateWorkers = cw
		res, err := Route(ckt, 8, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", cw, err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("workers=%d Result diverges from sequential", cw)
		}
	}
}

// TestSSSPCountersWorkerInvariantBusc: the SSSP work counters count every
// Dijkstra run exactly once however the scans fan out — runs on scan fork
// 0 land on the routing context's scratch, runs on pooled forks and in the
// terminal prefetch are forwarded by the construction — so a busc route
// reports the same graph.sssp_runs and heap_pushes at one worker and at
// four, sequentially and in negotiated mode (whose sequential passes now
// fan their scans out over NetWorkers and forward the scan counters).
func TestSSSPCountersWorkerInvariantBusc(t *testing.T) {
	spec, ok := circuits.SpecByName("busc")
	if !ok {
		t.Fatal("busc spec missing")
	}
	ckt := synth(t, spec, 1)
	run := func(opts Options) (*Result, stats.Snapshot) {
		col := stats.New()
		ctx := NewContext(col)
		defer ctx.Close()
		res, err := RouteCtx(ctx, ckt, 10, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, col.Snapshot()
	}
	for _, mode := range []struct {
		name string
		opts func(workers int) Options
	}{
		{"sequential", func(w int) Options { return Options{MaxPasses: 4, CandidateWorkers: w} }},
		{"negotiated", func(w int) Options { return Options{Parallel: true, IncrementalReroute: true, NetWorkers: w} }},
	} {
		refRes, ref := run(mode.opts(1))
		res, got := run(mode.opts(4))
		if !reflect.DeepEqual(res, refRes) {
			t.Fatalf("%s: Result at 4 workers diverges from 1 worker", mode.name)
		}
		if got.SSSPRuns != ref.SSSPRuns || got.HeapPushes != ref.HeapPushes {
			t.Fatalf("%s: 4 workers counted %d SSSP runs / %d heap pushes, 1 worker %d / %d",
				mode.name, got.SSSPRuns, got.HeapPushes, ref.SSSPRuns, ref.HeapPushes)
		}
		if ref.SSSPRuns == 0 || got.ParallelScans == 0 || got.ScanCPU == 0 {
			t.Fatalf("%s: counters not forwarded: %d SSSP runs at 1 worker, %d parallel scans (cpu %v) at 4",
				mode.name, ref.SSSPRuns, got.ParallelScans, got.ScanCPU)
		}
	}
}
