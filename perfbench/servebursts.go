package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"smartfeat/internal/datasets"
	"smartfeat/internal/experiments"
	"smartfeat/internal/grid"
	"smartfeat/internal/obs"
	"smartfeat/internal/serve"
)

// serveDatasets each get a quarter of every burst.
var serveDatasets = []string{"Diabetes", "Tennis", "Heart", "Lawschool"}

// The serve-bursts schedule: 16-job bursts once a second build a queue on
// 2 executors and drain well before the next burst, so queue wait shows in
// the p95 and execution in the p50 without a growing backlog.
const (
	burstSize     = 16
	burstEvery    = time.Second
	burstJitterMS = 100
	serveTenants  = 4
	serveQueue    = 64 // at least a burst: a healthy run sees no 429s
)

// serveBursts drives an in-process smartfeatd server on a loopback
// listener with an open-loop burst schedule. Every job is a light quick
// Table-4 spec (Featuretools, NB, one worker) on one dataset; its served
// result must equal the reference fold made in set-up.
type serveBursts struct {
	opts   options
	params burstParams
	srv    *serve.Server
	hs     *http.Server
	served chan error // the listener goroutine's exit
	base   string
	client *http.Client
	ref    map[string]string // dataset → reference tables
	loadS  []float64
	warm   []map[string]float64 // registry deltas of each warm-up burst
	runs   int                  // measured passes so far; job names must stay unique
	ev     events
}

func newServeBursts(opts options) workload {
	n := runtime.NumCPU()
	return &serveBursts{
		opts:   opts,
		params: burstParams{Bursts: opts.seconds, Size: burstSize, Every: burstEvery, JitterMS: burstJitterMS, Tenants: serveTenants},
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}},
	}
}

// jobSpec is the light job every schedule entry submits.
func jobSpec(dataset string) serve.JobSpec {
	return serve.JobSpec{Table: 4, Quick: true, Datasets: []string{dataset},
		Methods: []string{experiments.MethodFeaturetools}, Models: []string{"NB"}, Workers: 1}
}

// reference folds the spec's tables through the grid engine directly, the
// way the experiments CLI would.
func reference(ctx context.Context, dataset string) (string, error) {
	cfg := experiments.QuickConfig()
	cfg.Models = []string{"NB"}
	cfg.Workers = 1
	sel := grid.Selection{Table: 4}
	plan := sel.Plan([]string{dataset}, []string{experiments.MethodInitial, experiments.MethodFeaturetools})
	res, err := (&grid.Runner{Config: cfg}).Run(ctx, plan)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	sel.Render(&buf, res, []string{dataset}, cfg, "")
	return buf.String(), nil
}

func (s *serveBursts) setup(ctx context.Context, rep int) error {
	s.close() // a repeated set-up replaces the previous server
	t0 := time.Now()
	for _, n := range serveDatasets { // timed only: each job loads its own copy
		if _, err := datasets.Load(n, experiments.QuickConfig().Seed); err != nil {
			return err
		}
	}
	s.loadS = append(s.loadS, time.Since(t0).Seconds())
	ref := map[string]string{}
	for _, n := range serveDatasets {
		r, err := reference(ctx, n)
		if err != nil {
			return fmt.Errorf("reference %s: %w", n, err)
		}
		if s.ref != nil && s.ref[n] != r {
			return fmt.Errorf("reference fold of %s changed between set-ups", n)
		}
		ref[n] = r
	}
	s.ref = ref
	srv, err := serve.NewServer(serve.Options{
		RunRoot:    filepath.Join(s.opts.tmp, fmt.Sprintf("serve-%d", rep)),
		QueueDepth: serveQueue,
		Executors:  runtime.NumCPU(),
		Worker:     "perfbench",
		Logf:       s.ev.logf,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx)
		return err
	}
	s.srv, s.hs, s.served = srv, &http.Server{Handler: srv.Handler()}, make(chan error, 1)
	s.base = "http://" + ln.Addr().String()
	go func() { s.served <- s.hs.Serve(ln) }()

	p := s.params
	p.Bursts, p.JitterMS = 1, 0 // set-up must not sleep
	before := snapshot()
	br := s.drive(ctx, burstSchedule(s.opts.seed, p, serveDatasets, fmt.Sprintf("warm%d-", rep)))
	if br.failed > 0 {
		return fmt.Errorf("warm-up burst: %d of %d jobs failed", br.failed, len(br.samples))
	}
	s.warm = append(s.warm, snapshot().delta(before))
	if rep > 0 {
		if err := sameCounts(s.warm[0], s.warm[rep]); err != nil {
			return fmt.Errorf("warm-up burst %d: %w", rep, err)
		}
	}
	return nil
}

// jobSample is the generator's record of one scheduled job.
type jobSample struct {
	name                                string
	due, sent, accepted, readStart, end time.Time
	rejected, failed                    bool
}

func (j *jobSample) lag() time.Duration     { return j.sent.Sub(j.due) }
func (j *jobSample) submit() time.Duration  { return j.accepted.Sub(j.sent) }
func (j *jobSample) read() time.Duration    { return j.end.Sub(j.readStart) }
func (j *jobSample) latency() time.Duration { return j.end.Sub(j.due) }

// burstRun is one driven schedule.
type burstRun struct {
	samples  []jobSample
	failed   int
	rejected int
	cellS    float64 // summed executed-cell seconds while it ran
	// peaks is the peak RSS (MiB) from each burst's due time until the
	// next one's, the last until every result is in.
	peaks []float64
}

// drive runs the schedule open-loop: one generator goroutine sends each job
// when it is due, whatever the server's state; a waiter per admitted job
// takes its completion from Server.Job(id).Done() and then reads status and
// result over HTTP. Latency runs from when the job was due until its result
// body is in, so generator lateness counts against the server.
func (s *serveBursts) drive(ctx context.Context, jobs []scheduledJob) *burstRun {
	br := &burstRun{samples: make([]jobSample, len(jobs))}
	cells0 := cellSeconds()
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	burst := -1
	for i, j := range jobs {
		smp := &br.samples[i]
		smp.name, smp.due = j.Name, start.Add(j.Due)
		time.Sleep(time.Until(smp.due))
		if j.Burst != burst {
			if burst >= 0 {
				br.peaks = append(br.peaks, peakRSSMB())
			}
			resetPeakRSS()
			burst = j.Burst
		}
		smp.sent = time.Now()
		jctx, sp := obs.StartSpan(ctx, "job", obs.String("op", j.Name))
		s.ev.register(j.Name, jctx)
		code, err := s.submit(jctx, j)
		smp.accepted = time.Now()
		if err != nil || code != http.StatusAccepted {
			smp.failed = true
			smp.rejected = code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
			fmt.Fprintf(os.Stderr, "perfbench: submit %s: status %d, %v\n", j.Name, code, err)
			sp.End()
			continue
		}
		wg.Add(1)
		go func(j scheduledJob) {
			defer wg.Done()
			defer sp.End()
			if err := s.await(jctx, j, smp); err != nil {
				smp.failed = true
				fmt.Fprintf(os.Stderr, "perfbench: job %s: %v\n", j.Name, err)
			}
			smp.end = time.Now()
		}(j)
	}
	wg.Wait()
	br.peaks = append(br.peaks, peakRSSMB())
	for _, smp := range br.samples {
		if smp.failed {
			br.failed++
		}
		if smp.rejected {
			br.rejected++
		}
	}
	br.cellS = cellSeconds() - cells0
	return br
}

func (s *serveBursts) submit(ctx context.Context, j scheduledJob) (int, error) {
	_, sp := obs.StartSpan(ctx, "job.submit")
	defer sp.End()
	body, err := json.Marshal(map[string]any{"name": j.Name, "spec": jobSpec(j.Dataset)})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", j.Tenant)
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// await waits for the job to finish, then reads its status and result and
// checks the result against the reference fold.
func (s *serveBursts) await(ctx context.Context, j scheduledJob, smp *jobSample) error {
	job, ok := s.srv.Job(j.Name)
	if !ok {
		return errors.New("admitted job unknown to the server")
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		return ctx.Err()
	}
	_, sp := obs.StartSpan(ctx, "job.read")
	defer sp.End()
	smp.readStart = time.Now()
	status, err := s.get(ctx, "/v1/jobs/"+j.Name)
	if err != nil {
		return err
	}
	var view struct{ Status, Error string }
	if err := json.Unmarshal(status, &view); err != nil {
		return fmt.Errorf("status body: %w", err)
	}
	if view.Status != serve.StatusCompleted {
		return fmt.Errorf("status %s: %s", view.Status, view.Error)
	}
	result, err := s.get(ctx, "/v1/jobs/"+j.Name+"/result")
	if err != nil {
		return err
	}
	if string(result) != s.ref[j.Dataset] {
		return errors.New("served result differs from the reference fold")
	}
	return nil
}

func (s *serveBursts) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func (s *serveBursts) run(ctx context.Context, traced bool) (*outcome, error) {
	if traced {
		s.ev.start()
	}
	before := snapshot()
	s.runs++
	jobs := burstSchedule(s.opts.seed, s.params, serveDatasets, fmt.Sprintf("run%d-", s.runs))
	br := s.drive(ctx, jobs)
	ev, highWater := s.ev.stop()
	d := snapshot().delta(before)
	o := &outcome{attempted: len(jobs), failed: br.failed, counts: d,
		detail: &serveDetail{br: br, ev: ev, highWater: highWater}, peakMB: median(br.peaks)}
	lags := make([]float64, len(br.samples))
	for i := range br.samples {
		lags[i] = ms(br.samples[i].lag())
	}
	o.phase = map[string]any{
		"sent": len(jobs), "succeeded": len(jobs) - br.failed, "failed": br.failed, "rejected": br.rejected,
		"lag_ms_p95": nearestRank(lags, 95).Value, "lag_ms_max": nearestRank(lags, 100).Value,
		"schedule": s.params, "slo_ms": s.opts.sloMS,
	}
	return o, nil
}

// serveDetail is one pass's raw samples: the generator's per-job records and,
// on the traced pass, the server-side lifecycle events.
type serveDetail struct {
	br        *burstRun
	ev        map[string]*jobEvents
	highWater int // deepest the admission queue got
}

func (s *serveBursts) layers(_ context.Context, plain, traced *pass, _ []span, m map[string]float64) (string, error) {
	for k, v := range plain.counts {
		m[k] = v
	}
	pd, td := plain.detail.(*serveDetail), traced.detail.(*serveDetail)
	var lat, submit, read, lag []float64
	misses := 0
	for i := range pd.br.samples {
		smp := &pd.br.samples[i]
		lag = append(lag, ms(smp.lag()))
		if smp.failed {
			misses++
			continue
		}
		submit = append(submit, ms(smp.submit()))
		lat = append(lat, ms(smp.latency()))
		read = append(read, ms(smp.read()))
		if ms(smp.latency()) > s.opts.sloMS {
			misses++
		}
	}
	put := func(name string, q quantile) {
		if q.OK {
			m[name] = q.Value
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s = %.3f (nearest rank, n=%d, reported=%v)\n", name, q.Value, q.N, q.OK)
	}
	put("job_p50_ms", nearestRank(lat, 50))
	put("job_p95_ms", nearestRank(lat, 95))
	put("serve.submit_ms.p50", nearestRank(submit, 50))
	put("serve.submit_ms.p95", nearestRank(submit, 95))
	put("serve.read_ms.p50", nearestRank(read, 50))
	put("loadgen.lag_ms.p95", nearestRank(lag, 95))
	m["slo_miss_frac"] = float64(misses) / float64(len(pd.br.samples))
	m["serve.rejected"] = float64(pd.br.rejected)

	// Split each traced job's latency into consecutive segments that sum to
	// it exactly. Server-side instants come from the lifecycle events and
	// are clamped into order (a job's "completed" event can land just after
	// its waiter already woke).
	segments := []string{"loadgen (lateness)", "serve (submit)", "serve (queue wait)",
		"serve (execution)", "serve (completion hand-off)", "serve (status+result read)"}
	rows := map[string]time.Duration{}
	var total time.Duration
	var queue, exec, tracedLat []float64
	for i := range td.br.samples {
		smp := &td.br.samples[i]
		if smp.failed {
			continue
		}
		total += smp.latency()
		tracedLat = append(tracedLat, ms(smp.latency()))
		e := td.ev[smp.name]
		if e == nil || e.running.IsZero() || e.done.IsZero() {
			continue // its latency stays unattributed
		}
		queue = append(queue, ms(e.running.Sub(e.admitted)))
		exec = append(exec, ms(e.done.Sub(e.running)))
		t := []time.Time{smp.due, smp.sent, smp.accepted, e.running, e.done, smp.readStart, smp.end}
		for k := 1; k < len(t); k++ {
			if t[k].Before(t[k-1]) {
				t[k] = t[k-1]
			}
			if t[k].After(smp.end) {
				t[k] = smp.end
			}
			rows[segments[k-1]] += t[k].Sub(t[k-1])
		}
	}
	put("serve.queue_wait_ms.p50", nearestRank(queue, 50))
	put("serve.queue_wait_ms.p95", nearestRank(queue, 95))
	put("serve.exec_ms.p50", nearestRank(exec, 50))
	put("serve.exec_ms.p95", nearestRank(exec, 95))
	execSum := rows["serve (execution)"]
	m["serve.queue_high_water"] = float64(td.highWater)
	m["grid.run_s"] = execSum.Seconds()
	m["grid.cell_s"] = td.br.cellS
	m["grid.overhead_ms_per_job"] = ratio(1000*(execSum.Seconds()-td.br.cellS), float64(len(exec)))
	m["datasets.load_s"] = median(s.loadS)
	m["trace.overhead_frac"] = ratio(median(tracedLat), median(lat)) - 1

	cells := time.Duration(td.br.cellS * float64(time.Second))
	rows["experiments+ml (grid cells)"] = cells
	rows["grid (runner+fold, outside cells)"] = execSum - cells
	delete(rows, "serve (execution)")
	return layerTable("serve-bursts job latency, summed over jobs (traced pass)", total, rows), nil
}

// events records server-side job lifecycle transitions on the traced pass,
// taken from the server's Logf hook at the moment each happens: admitted
// (queued), running, and finished. Each transition also opens or closes
// the job's job.queue and job.exec spans.
type events struct {
	mu        sync.Mutex
	on        bool
	jobs      map[string]*jobEvents
	queued    int
	highWater int
}

type jobEvents struct {
	ctx                     context.Context
	queue, exec             *obs.Span
	admitted, running, done time.Time
}

func (e *events) start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.on, e.jobs, e.queued, e.highWater = true, map[string]*jobEvents{}, 0, 0
}

// stop ends recording and returns the jobs' events and the queue's
// high-water mark.
func (e *events) stop() (map[string]*jobEvents, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.on = false
	return e.jobs, e.highWater
}

// register tells the recorder which context a job's spans descend from; it
// must precede the job's submission.
func (e *events) register(id string, ctx context.Context) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.on {
		e.jobs[id] = &jobEvents{ctx: ctx}
	}
}

func (e *events) logf(format string, args ...any) {
	if len(args) == 0 {
		return
	}
	id, _ := args[0].(string)
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	j := e.jobs[id]
	if !e.on || j == nil {
		return
	}
	switch {
	case strings.HasPrefix(format, "job %s admitted"):
		j.admitted = now
		_, j.queue = obs.StartSpan(j.ctx, "job.queue")
		e.queued++
		e.highWater = max(e.highWater, e.queued)
	case strings.HasPrefix(format, "job %s running"):
		j.running = now
		j.queue.End()
		_, j.exec = obs.StartSpan(j.ctx, "job.exec")
		e.queued--
	case strings.HasPrefix(format, "job %s completed"), strings.HasPrefix(format, "job %s FAILED"),
		strings.HasPrefix(format, "job %s canceled"):
		j.done = now
		j.exec.End()
	}
}

func (s *serveBursts) close() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // stops the listener; in-flight handlers finish
	<-s.served
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server drain:", err)
	}
	s.srv = nil
}
