package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json and the program's
// metric tables in step: every listed workload exists, and the metrics
// have the same names, order and units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the program lacks", w.Name)
		}
	}
	check := func(kind string, table []metricDef, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(table) != len(listed) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(table), len(listed))
		}
		for i := range min(len(table), len(listed)) {
			if table[i].name != listed[i].Name || table[i].unit != listed[i].Unit {
				t.Errorf("%s[%d]: program %s [%s], BENCHMARK.json %s [%s]", kind, i, table[i].name, table[i].unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

// smokeCircuits are the smallest inputs per workload.
var smokeCircuits = map[string]string{
	"seq-route":        "term1",
	"negotiated-route": "term1",
	"minwidth":         "term1",
	"service-mix":      "term1,9symml",
}

// TestSmokeEveryMetricPrinted runs every workload untraced and traced on
// its smallest inputs and asserts that every end-to-end and per-layer
// metric is printed with its unit, along with the op count and failed
// fraction, and that nothing failed.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("routes real circuits")
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", w, "--seed", "1", "--seconds", "0", "--trace", trace,
					"--scale", "1", "--circuits", smokeCircuits[w], "--out", t.TempDir()}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, errb.String(), out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result JSON: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				table := endToEnd
				if trace == "1" {
					table = perLayer
				}
				if len(res.Metrics) != len(table) {
					t.Errorf("JSON has %d metrics, want %d", len(res.Metrics), len(table))
				}
				text := out.String()
				for _, m := range table {
					got, ok := res.Metrics[m.name]
					if !ok || got.Value == nil || got.Unit != m.unit {
						t.Errorf("metric %s [%s] missing from the JSON (got %+v)", m.name, m.unit, got)
					}
					if !strings.Contains(text, "metric "+m.name+" ") {
						t.Errorf("metric %s not in the report", m.name)
					}
				}
				if !strings.Contains(text, "failed_frac 0\n") {
					t.Errorf("report lacks the op count and failed fraction")
				}
			})
		}
	}
}
