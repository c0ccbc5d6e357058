package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fpgarouter/internal/journal"
	"fpgarouter/internal/router"
	"fpgarouter/internal/service"
)

// Service-mix shape: route jobs on three small circuits, a seeded share of
// exact resubmissions, and a closed loop of two clients.
var serviceCircuits = []string{"term1", "apex7", "9symml"}

const (
	serviceClients    = 2
	servicePerCircuit = 24  // 72 computed jobs per batch: job_s.p85 keeps ≥10 beyond it
	serviceHitRate    = 0.3 // share of submissions that repeat a finished job
	pollEvery         = 5 * time.Millisecond
)

// jobOp is one submission of the batch: a fresh job (repeat < 0) or an
// exact resubmission of the fresh op at index repeat.
type jobOp struct {
	in     *instance
	repeat int
	body   []byte
}

// jobOut is what a client observed for one op.
type jobOut struct {
	err       error
	hit       bool
	latency   float64 // submit to result received, seconds
	submitMs  float64
	resultMs  float64
	polls     int
	queueWait float64
	runS      float64
	result    []byte // compacted "result" member of the response
	width     int
}

// serviceBatch is the fixed, seed-derived op sequence of one run: perCircuit
// fresh jobs per circuit, with exact resubmissions of earlier fresh jobs
// mixed in at a seeded rate. The sequence ends with a resubmission, so
// every batch has a cache hit.
func serviceBatch(seed int64, names []string, perCircuit int) ([]jobOp, time.Duration, error) {
	insts, synth, err := synthesize(seed, names, perCircuit, widthSlack)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	var ops []jobOp
	var freshIdx []int
	for next := 0; next <= len(insts); {
		hit := len(freshIdx) >= serviceClients && rng.Float64() < serviceHitRate
		if next == len(insts) {
			if len(freshIdx) == 0 {
				break
			}
			hit, next = true, next+1
		}
		if hit {
			j := freshIdx[rng.Intn(len(freshIdx))]
			ops = append(ops, jobOp{in: ops[j].in, repeat: j, body: ops[j].body})
			continue
		}
		in := insts[next]
		next++
		body, err := json.Marshal(service.SubmitRequest{Mode: service.ModeRoute, Netlist: in.ckt, Width: in.width})
		if err != nil {
			return nil, 0, err
		}
		freshIdx = append(freshIdx, len(ops))
		ops = append(ops, jobOp{in: in, repeat: -1, body: body})
	}
	return ops, synth, nil
}

// daemon is one in-process durable routed on a loopback listener.
type daemon struct {
	svc  *service.Service
	srv  *http.Server
	url  string
	done chan struct{}
}

// openDaemon opens a durable service on dir, wiping it first when fresh,
// and serves it on a loopback port. service.OpenDurable keeps the journal
// it opens to itself, so the journal's file stays open until the process
// exits; its appends are already synced.
func openDaemon(dir string, fresh bool) (*daemon, error) {
	if fresh {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	d := &daemon{done: make(chan struct{})}
	svc, _, err := service.OpenDurable(dir, service.Config{})
	if err != nil {
		return nil, err
	}
	d.svc = svc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: svc.Handler()}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return d, nil
}

// close stops the HTTP server, then drains the service.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.srv != nil {
		d.srv.Shutdown(ctx) // only idle keep-alive connections remain; nothing to report
		<-d.done
	}
	return d.svc.Shutdown(ctx)
}

func serviceMix(o options) (*report, error) {
	rep := newReport()
	perCircuit := servicePerCircuit
	if o.scale > 0 {
		perCircuit = o.scale
	}
	names := serviceCircuits
	if len(o.circuits) > 0 {
		names = o.circuits
	}
	dir := filepath.Join(o.outDir, fmt.Sprintf("service-seed%d", o.seed))
	var ops []jobOp
	var d *daemon
	var setups, synths, fabrics []float64
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		var synth time.Duration
		var err error
		if ops, synth, err = serviceBatch(o.seed, names, perCircuit); err != nil {
			return nil, err
		}
		synths = append(synths, synth.Seconds())
		var fresh []*instance
		for _, op := range ops {
			if op.repeat < 0 {
				fresh = append(fresh, op.in)
			}
		}
		if fabrics, err = buildFabrics(fabrics, fresh); err != nil {
			return nil, err
		}
		if d, err = openDaemon(dir, true); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r < setupRepeats-1 {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["circuits.synth_s"] = median(synths)
	rep.metrics["fpga.fabric_ms"] = median(fabrics)

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}
	defer client.CloseIdleConnections()
	// Warm the daemon's workers and the client's connections with one job
	// outside the batch (its circuit is not in the batch, so no hit).
	warm, _, err := serviceBatch(o.seed+1, names[:1], 1)
	if err != nil {
		return nil, err
	}
	if out := runJob(client, d.url, warm[0].body, nil, 0, 0); out.err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up job: %w", out.err)
	}

	outs, batchS := runBatch(client, d.url, ops, nil, 0)
	if err := d.close(); err != nil {
		return nil, err
	}
	serviceResults(rep, ops, outs, batchS)
	if o.trace {
		if err := tracedServiceBatch(o, rep, client, dir, ops, batchS); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runBatch drains the op sequence with a closed loop of serviceClients
// clients and returns each op's outcome and the batch's wall time.
func runBatch(client *http.Client, url string, ops []jobOp, tr *tracer, root int) ([]jobOut, float64) {
	outs := make([]jobOut, len(ops))
	finished := make([]chan struct{}, len(ops))
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				if j := ops[i].repeat; j >= 0 {
					<-finished[j] // a resubmission repeats a job that has finished
				}
				outs[i] = runJob(client, url, ops[i].body, tr, root, i+1)
				close(finished[i])
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(t0).Seconds()
}

// runJob submits one job, polls until it is terminal, and fetches its
// result.
func runJob(client *http.Client, url string, body []byte, tr *tracer, parent, op int) jobOut {
	var out jobOut
	opID, endOp := tr.begin(parent, op, "op job")
	defer endOp()
	t0 := time.Now()
	var st service.Status
	_, endSubmit := tr.begin(opID, op, "http.submit")
	err := call(client, http.MethodPost, url+"/jobs", body, http.StatusAccepted, &st)
	endSubmit()
	out.submitMs = ms(time.Since(t0))
	if err != nil {
		out.err = err
		return out
	}
	out.hit = st.CacheHit
	if st.State == service.StateQueued || st.State == service.StateRunning {
		_, endPoll := tr.begin(opID, op, "http.poll")
		for st.State == service.StateQueued || st.State == service.StateRunning {
			time.Sleep(pollEvery)
			out.polls++
			if err := call(client, http.MethodGet, url+"/jobs/"+st.ID, nil, http.StatusOK, &st); err != nil {
				out.err = err
				endPoll()
				return out
			}
		}
		endPoll()
	}
	if st.State != service.StateDone {
		out.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return out
	}
	t1 := time.Now()
	var rr struct {
		Width    int             `json:"width"`
		Complete bool            `json:"complete"`
		Result   json.RawMessage `json:"result"`
	}
	_, endResult := tr.begin(opID, op, "http.result")
	err = call(client, http.MethodGet, url+"/jobs/"+st.ID+"/result", nil, http.StatusOK, &rr)
	endResult()
	out.resultMs = ms(time.Since(t1))
	out.latency = time.Since(t0).Seconds()
	if err != nil {
		out.err = err
		return out
	}
	if !rr.Complete {
		out.err = fmt.Errorf("job %s: result not complete", st.ID)
		return out
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, rr.Result); err != nil {
		out.err = err
		return out
	}
	out.result, out.width = buf.Bytes(), rr.Width
	if st.StartedAt != nil && st.FinishedAt != nil {
		out.queueWait = st.StartedAt.Sub(st.SubmittedAt).Seconds()
		out.runS = st.FinishedAt.Sub(*st.StartedAt).Seconds()
	}
	return out
}

// call performs one HTTP exchange and decodes the JSON reply.
func call(client *http.Client, method, url string, body []byte, want int, v any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// serviceResults verifies a batch's answers and turns them into metrics
// and rows. Every fresh job's result passes the legality checker; the
// first one of each circuit is byte-equal to a direct RouteCtx of the same
// instance; every resubmission's answer, cache hit or not, is byte-equal
// to the result it repeats.
func serviceResults(rep *report, ops []jobOp, outs []jobOut, batchS float64) {
	var jobS, hitMs, submitMs, resultMs, queue, runS []float64
	byCircuit := map[string][]float64{}
	var polls, kb, misses float64
	parity := map[string]bool{}
	for i, op := range ops {
		out := outs[i]
		rep.attempted++
		if out.err != nil {
			rep.fail("%s: %v", op.in.label(), out.err)
			continue
		}
		submitMs = append(submitMs, out.submitMs)
		resultMs = append(resultMs, out.resultMs)
		kb += float64(len(out.result)) / 1024
		if op.repeat >= 0 {
			if !bytes.Equal(out.result, outs[op.repeat].result) {
				rep.fail("%s: resubmission's answer differs from the result it repeats", op.in.label())
				continue
			}
			if out.hit {
				hitMs = append(hitMs, out.latency*1000)
				continue
			}
			// The service publishes a job as done before its result reaches
			// the store, so a resubmission that lands in that window is
			// routed again. Count it; it is a computed job.
			misses++
			jobS = append(jobS, out.latency)
			byCircuit[op.in.spec.Name] = append(byCircuit[op.in.spec.Name], out.latency)
			queue = append(queue, out.queueWait)
			runS = append(runS, out.runS)
			polls += float64(out.polls)
			continue
		}
		if out.hit {
			rep.fail("%s: fresh job answered from the store", op.in.label())
			continue
		}
		var res router.Result
		if err := json.Unmarshal(out.result, &res); err != nil {
			rep.fail("%s: decoding result: %v", op.in.label(), err)
			continue
		}
		if err := checkRouting(op.in.ckt, op.in.width, &res); err != nil {
			rep.fail("%s: %v", op.in.label(), err)
			continue
		}
		if !parity[op.in.spec.Name] {
			parity[op.in.spec.Name] = true
			if err := directParity(op.in, out.result); err != nil {
				rep.fail("%s: %v", op.in.label(), err)
			}
		}
		jobS = append(jobS, out.latency)
		byCircuit[op.in.spec.Name] = append(byCircuit[op.in.spec.Name], out.latency)
		queue = append(queue, out.queueWait)
		runS = append(runS, out.runS)
		polls += float64(out.polls)
		rep.metrics["wirelength"] += res.Wirelength
		rep.metrics["max_path_sum"] += res.MaxPathSum
		rep.metrics["width_sum"] += float64(out.width)
		rep.rows = append(rep.rows, fmt.Sprintf("circuit=%s synth_seed=%d width=%d job_s=%.4f passes=%d wirelength=%.1f max_path_sum=%.1f",
			op.in.spec.Name, op.in.seed, out.width, out.latency, res.Passes, res.Wirelength, res.MaxPathSum))
	}
	m := rep.metrics
	m["set_s"], m["set_geomean_s"] = setTimes(byCircuit)
	m["job_s.p50"] = median(jobS)
	m["job_s.p85"] = quantile(jobS, 0.85)
	m["cache_hit_ms.p50"] = median(hitMs)
	m["jobs_per_s"] = float64(len(ops)) / batchS
	for _, k := range []string{"job_s.p50", "job_s.p85", "cache_hit_ms.p50", "jobs_per_s"} {
		m["service."+k] = m[k]
	}
	m["service.submit_ms.p50"] = median(submitMs)
	m["service.result_ms.p50"] = median(resultMs)
	m["service.result_kb"] = ratio(kb, float64(len(submitMs)))
	m["service.polls_per_job"] = ratio(polls, float64(len(jobS)))
	m["service.queue_wait_s.p50"] = median(queue)
	m["service.run_s.p50"] = median(runS)
	m["service.jobs"] = float64(len(ops))
	m["service.cache_hits"] = float64(len(hitMs))
	m["service.cache_misses"] = misses
}

// directParity routes the instance through the library with the service's
// request shape and compares the JSON encodings byte for byte.
func directParity(in *instance, served []byte) error {
	res, err := router.RouteCtx(nil, in.ckt, in.width, router.Options{})
	if err != nil {
		return fmt.Errorf("direct route for parity: %w", err)
	}
	direct, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(direct, served) {
		return errors.New("service result differs from a direct RouteCtx of the same circuit, width and options")
	}
	return nil
}

// tracedServiceBatch reruns the batch on a fresh daemon with spans around
// every HTTP call, books the service's collector to layers, and times the
// journal and store on the run's directory.
func tracedServiceBatch(o options, rep *report, client *http.Client, dir string, ops []jobOp, untracedS float64) error {
	tr := newTracer()
	root, endRoot := tr.begin(0, 0, "workload "+o.workload)
	d, err := openDaemon(dir, true)
	if err != nil {
		return err
	}
	bookMem := memDelta(rep.metrics)
	batch, endBatch := tr.begin(root, 0, "batch traced")
	outs, batchS := runBatch(client, d.url, ops, tr, batch)
	endBatch()
	bookMem()
	snap := d.svc.Stats().Snapshot()
	if err := d.close(); err != nil {
		return err
	}
	for i, out := range outs {
		rep.attempted++
		if out.err != nil {
			rep.fail("%s (traced): %v", ops[i].in.label(), out.err)
		}
	}
	var runTotal float64
	for _, out := range outs {
		runTotal += out.runS
	}
	layerMetrics(rep.metrics, snap, engineService, runTotal)
	rep.metrics["trace.overhead_frac"] = batchS/untracedS - 1

	_, endJournal := tr.begin(root, 0, "journal side")
	err = journalLayers(rep.metrics, dir, outs)
	endJournal()
	if err != nil {
		return err
	}
	endRoot()
	rep.metrics["trace.spans"] = float64(tr.count())
	return tr.write(filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed)))
}

// journalLayers measures the durability layer on the run's directory: the
// journal and store the batch left behind, a timed replay, and timed
// appends, puts and gets on a side journal and store with a batch result
// as payload.
func journalLayers(m map[string]float64, dir string, outs []jobOut) error {
	j, rep, err := journal.Open(filepath.Join(dir, "journal.wal"), journal.Options{})
	if err != nil {
		return err
	}
	m["journal.records"] = float64(len(rep.Records))
	if err := j.Close(); err != nil {
		return err
	}
	m["journal.kb"] = fileKB(filepath.Join(dir, "journal.wal"))
	m["journal.store_kb"] = fileKB(filepath.Join(dir, "store"))

	t0 := time.Now()
	d, err := openDaemon(dir, false)
	if err != nil {
		return err
	}
	m["journal.replay_s"] = time.Since(t0).Seconds()
	if err := d.close(); err != nil {
		return err
	}

	side := filepath.Join(dir, "side")
	sj, _, err := journal.Open(filepath.Join(side, "journal.wal"), journal.Options{})
	if err != nil {
		return err
	}
	defer sj.Close()
	store, err := journal.NewStore(filepath.Join(side, "store"))
	if err != nil {
		return err
	}
	var payload json.RawMessage
	for _, out := range outs {
		if out.err == nil {
			payload = out.result
			break
		}
	}
	var appendMs, putMs, getMs []float64
	for i := 0; i < 16; i++ {
		t := time.Now()
		if err := sj.Append(journal.Record{Event: journal.EvDone, JobID: fmt.Sprintf("side-%d", i)}); err != nil {
			return err
		}
		appendMs = append(appendMs, ms(time.Since(t)))
		key := journal.Key([]byte(fmt.Sprint(i)))
		t = time.Now()
		if err := store.Put(key, payload); err != nil {
			return err
		}
		putMs = append(putMs, ms(time.Since(t)))
		var back json.RawMessage
		t = time.Now()
		if _, err := store.Get(key, &back); err != nil {
			return err
		}
		getMs = append(getMs, ms(time.Since(t)))
	}
	m["journal.append_ms"] = median(appendMs)
	m["journal.store_put_ms"] = median(putMs)
	m["journal.store_get_ms"] = median(getMs)
	return nil
}

// fileKB returns the size of a file, or the total size of a directory's
// files, in KiB.
func fileKB(path string) float64 {
	var total int64
	filepath.Walk(path, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / 1024
}
