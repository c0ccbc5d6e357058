// Command perfbench is the repository's layered benchmark. One invocation
// runs one named workload against the router's public entry points
// (router.RouteCtx, router.MinWidthCtx, and the routed service over
// loopback HTTP), checks every routed result with an independent legality
// checker, and prints a human-readable report followed by one JSON line:
//
//	perfbench --workload seq-route --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// the run attaches a stats.Collector, records spans around every call it
// makes, and reports the per-layer metrics instead (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string   // traces and service journals; inside the checkout
	scale    int      // instances per circuit (0 = the workload's default)
	circuits []string // overrides the workload's circuits when non-empty
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (sets every circuits.Synthesize seed)")
	fs.Float64Var(&o.seconds, "seconds", 20, "minimum measured time; the workload's batch always completes")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "out"), "directory for traces and service journals")
	fs.IntVar(&o.scale, "scale", 0, "instances per circuit (0 = workload default)")
	circuitList := fs.String("circuits", "", "comma-separated circuits replacing the workload's own (for quick runs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if *circuitList != "" {
		o.circuits = strings.Split(*circuitList, ",")
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printHeader(stdout, o)
	rep, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	rep.print(stdout, o.trace)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printHeader stamps the run with what it measured and where.
func printHeader(w io.Writer, o options) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "# commit=%s go=%s nproc=%d gomaxprocs=%d\n", commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// commit reads the checked-out commit from .git, or reports "unknown"
// outside a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

// report is what a workload hands back: its metrics, its per-circuit rows,
// and its operation counts.
type report struct {
	metrics   map[string]float64
	rows      []string
	attempted int
	failed    int
	failures  []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// fail records a failed operation with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 16 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// jsonMetric is one entry of the final JSON line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report and, last, the JSON line with the
// end-to-end (or, traced, the per-layer) metrics.
func (r *report) print(w io.Writer, traced bool) {
	for _, row := range r.rows {
		fmt.Fprintln(w, "row", row)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "ops %d failed %d failed_frac %g\n", r.attempted, r.failed, frac)
	for _, a := range aliases {
		if v, ok := r.metrics[a.name]; ok {
			fmt.Fprintf(w, "metric %-26s %14.6g %s\n", a.name, v, a.unit)
		}
	}
	table := endToEnd
	if traced {
		table = perLayer
	}
	out := map[string]jsonMetric{}
	for _, m := range table {
		v := r.metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "metric %-26s %14.6g %s\n", m.name, v, m.unit)
		out[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	fmt.Fprintln(w, string(line))
}

// peakRSSMB returns the process's peak resident set size in MiB, read from
// /proc (VmHWM); where that is unavailable it falls back to the Go
// runtime's total reservation.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
