package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"testing"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/router"
)

// Wire compatibility for deleted router options. Job submission decodes
// strictly, so a removed field is a 400 on a fresh request; journal replay
// decodes leniently, so a journal written while the field existed still
// replays. testdata/lazy_scan_journal is such a journal, captured from a
// durable service that still had the lazy_scan option, as a crash left it:
// job-000001 (term1, width 10) done with its result in the store, and
// job-000002 (term1, width 12) started but not finished. Both were
// submitted with "single_step":true,"lazy_scan":true.

// TestReplayJournalWithRemovedField: the terminal job comes back terminal
// and servable, and the interrupted job re-runs to done with lazy_scan
// ignored — its result is the plain single-step route.
func TestReplayJournalWithRemovedField(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/lazy_scan_journal")); err != nil {
		t.Fatal(err)
	}
	_, report, ts := durableHarness(t, dir, Config{Workers: 1, QueueDepth: 4})
	if report.Completed != 1 || report.Requeued != 1 || len(report.Unrecoverable) != 0 {
		t.Fatalf("replay report %+v, want 1 completed, 1 requeued, none unrecoverable", report)
	}

	var st1 Status
	if code := getJSON(t, ts.URL+"/jobs/job-000001", &st1); code != http.StatusOK {
		t.Fatalf("job-000001 status: HTTP %d", code)
	}
	if st1.State != StateDone || !st1.Recovered {
		t.Fatalf("job-000001 came back %s (recovered %v), want done", st1.State, st1.Recovered)
	}
	var rr1 ResultResponse
	if code := getJSON(t, ts.URL+"/jobs/job-000001/result", &rr1); code != http.StatusOK {
		t.Fatalf("job-000001 result: HTTP %d", code)
	}
	if rr1.Width != 10 || rr1.Result == nil || !rr1.Result.Routed {
		t.Fatalf("job-000001 result: width %d, result %v", rr1.Width, rr1.Result)
	}

	final := pollUntilTerminal(t, ts.URL, "job-000002", 2*time.Minute)
	if final.State != StateDone || !final.Recovered {
		t.Fatalf("job-000002 ended %s (%s), recovered %v", final.State, final.Error, final.Recovered)
	}
	var rr2 ResultResponse
	if code := getJSON(t, ts.URL+"/jobs/job-000002/result", &rr2); code != http.StatusOK {
		t.Fatalf("job-000002 result: HTTP %d", code)
	}
	spec, _ := circuits.SpecByName("term1")
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := router.Route(ckt, 12, router.Options{MaxPasses: 4, SingleStep: true, CandidateWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(rr2.Result)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("replayed job-000002 differs from the plain single-step route:\n%.200s\nvs\n%.200s", gotJSON, wantJSON)
	}
}

// TestSubmitRemovedFieldRejected: a fresh submission naming the removed
// lazy_scan option is a 400 naming the field, like any unknown field.
func TestSubmitRemovedFieldRejected(t *testing.T) {
	_, ts := harness(t, Config{Workers: 1, QueueDepth: 2})
	code, body := postRaw(t, ts.URL+"/jobs",
		`{"mode":"route","circuit":"busc","options":{"single_step":true,"lazy_scan":true}}`)
	want := "{\n  \"error\": \"json: unknown field \\\"lazy_scan\\\"\"\n}\n"
	if code != http.StatusBadRequest || body != want {
		t.Fatalf("HTTP %d body %q, want 400 %q", code, body, want)
	}
}

// TestContentKeyStable pins the content key of a fixed request, as computed
// before lazy_scan was removed. The options marshal with omitempty, so a
// request that never set a removed field keeps its key, and store entries
// written before the removal still hit.
func TestContentKeyStable(t *testing.T) {
	job, err := resolveJob(&SubmitRequest{
		Mode: ModeRoute, Circuit: "busc", Seed: 1, Width: 10,
		Options: router.Options{MaxPasses: 4, SingleStep: true, CandidateWorkers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := contentKey(job)
	if err != nil {
		t.Fatal(err)
	}
	const want = "4fce0658a07508c18cb1c317bf6e51c17a79b9a626cb8f078097601a1f108fb4"
	if key != want {
		t.Fatalf("content key %s, want %s", key, want)
	}
}
