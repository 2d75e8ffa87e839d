package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"smartfeat/internal/experiments"
	"smartfeat/internal/fmgate"
	"smartfeat/internal/grid"
)

// workerTTL keeps the replica tests responsive (see grid's worker tests for
// the rationale on the floor).
const workerTTL = 5 * time.Second

// testSpec is the standard two-cell job the serve tests run: Table 4 over
// Diabetes with SMARTFEAT only, two downstream models, quick scale.
func testSpec() JobSpec {
	return JobSpec{
		Table:    4,
		Quick:    true,
		Datasets: []string{"Diabetes"},
		Methods:  []string{experiments.MethodSmartfeat},
		Models:   []string{"LR", "NB"},
	}
}

// recordSpec executes the spec's plan once sequentially, recording its FM
// traffic, and returns the recording directory plus the rendered golden text
// the daemon's result endpoint must reproduce byte-for-byte.
func recordSpec(t *testing.T, spec JobSpec) (fmDir, golden string) {
	t.Helper()
	cfg := spec.config()
	plan := spec.selection().Plan(spec.datasetNames(), spec.methodNames())
	fmDir = t.TempDir()
	stores, err := fmgate.NewRecordStoreSet(fmDir, fmgate.StoreSetManifest{
		ConfigHash: cfg.Fingerprint(), Seed: cfg.Seed, Budget: cfg.SamplingBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := (&grid.Runner{Config: cfg, Dir: t.TempDir(), Stores: stores}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := stores.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	spec.selection().Render(&buf, ref, spec.datasetNames(), cfg, "")
	return fmDir, buf.String()
}

// newTestServer builds a Server whose executors are live, with a Shutdown
// registered for test exit (bounded so a wedged job cannot hang the suite).
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.RunRoot == "" {
		opts.RunRoot = t.TempDir()
	}
	opts.Logf = t.Logf
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	t.Cleanup(func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
	})
	return s
}

// doSubmit posts one job; the caller owns the response body.
func doSubmit(t *testing.T, url, tenant, name string, spec JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(map[string]any{"name": name, "spec": spec})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// mustSubmit posts one job and asserts the status code.
func mustSubmit(t *testing.T, url, tenant, name string, spec JobSpec, want int) {
	t.Helper()
	resp := doSubmit(t, url, tenant, name, spec)
	defer resp.Body.Close()
	if resp.StatusCode != want {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit %s: status %d, want %d (%s)", name, resp.StatusCode, want, raw)
	}
}

// waitDone blocks until the job terminates (bounded).
func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s still %s after 60s", j.ID, j.Status())
	}
}

// TestSubmitOverflow429 pins the bounded-admission contract: with the single
// executor occupied and the queue full, the next submission bounces with 429
// and the configured Retry-After hint — and the rejected name is not burned
// (it resubmits cleanly once the queue has room).
func TestSubmitOverflow429(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 2, Executors: 1, RetryAfter: 7 * time.Second})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	running := make(chan string, 8)
	s.execute = func(ctx context.Context, j *Job) (string, error) {
		running <- j.ID
		select {
		case <-release:
			return "stub result", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// j1 is admitted and starts running — it no longer occupies the queue.
	mustSubmit(t, ts.URL, "", "j1", testSpec(), http.StatusAccepted)
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("j1 never started")
	}
	// j2 and j3 fill the queue to its depth of 2.
	mustSubmit(t, ts.URL, "", "j2", testSpec(), http.StatusAccepted)
	mustSubmit(t, ts.URL, "", "j3", testSpec(), http.StatusAccepted)

	// A queued job's result endpoint reports 202, not a result.
	resp, err := http.Get(ts.URL + "/v1/jobs/j2/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job result status = %d, want 202", resp.StatusCode)
	}

	// j4 overflows: 429, Retry-After header, retry_after in the body.
	resp = doSubmit(t, ts.URL, "", "j4", testSpec())
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429 (%s)", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want %q", got, "7")
	}
	if !strings.Contains(string(raw), `"retry_after": 7`) {
		t.Fatalf("429 body missing retry_after hint: %s", raw)
	}

	// The rejection left no tombstone: once the backlog drains, the same
	// name admits.
	unblock()
	for _, id := range []string{"j1", "j2", "j3"} {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s missing", id)
		}
		waitDone(t, j)
	}
	mustSubmit(t, ts.URL, "", "j4", testSpec(), http.StatusAccepted)
	j4, ok := s.Job("j4")
	if !ok {
		t.Fatal("j4 missing after resubmit")
	}
	waitDone(t, j4)
	if j4.Status() != StatusCompleted {
		t.Fatalf("j4 status = %s, want completed", j4.Status())
	}
}

// TestTenantFairness pins per-tenant round-robin dequeueing: a tenant that
// saturates the queue delays another tenant by at most one job — the lone
// job from tenant "beta" runs after exactly one more "acme" job, not after
// acme's whole backlog.
func TestTenantFairness(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 16, Executors: 1})
	gate := make(chan struct{})
	var gateOnce sync.Once
	open := func() { gateOnce.Do(func() { close(gate) }) }
	defer open()
	started := make(chan string, 8)
	var mu sync.Mutex
	var order []string
	s.execute = func(ctx context.Context, j *Job) (string, error) {
		select {
		case started <- j.ID:
		default:
		}
		<-gate
		mu.Lock()
		order = append(order, j.ID)
		mu.Unlock()
		return "stub result", nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// a1 starts running (blocked at the gate), emptying the queue.
	mustSubmit(t, ts.URL, "acme", "a1", testSpec(), http.StatusAccepted)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("a1 never started")
	}
	// acme floods; beta submits one job last.
	for _, name := range []string{"a2", "a3", "a4"} {
		mustSubmit(t, ts.URL, "acme", name, testSpec(), http.StatusAccepted)
	}
	mustSubmit(t, ts.URL, "beta", "b1", testSpec(), http.StatusAccepted)

	open()
	for _, id := range []string{"a1", "a2", "a3", "a4", "b1"} {
		j, _ := s.Job(id)
		waitDone(t, j)
	}
	mu.Lock()
	got := strings.Join(order, " ")
	mu.Unlock()
	// Round-robin: after the in-flight a1 and the already-queued a2, beta's
	// turn comes before acme's remaining backlog.
	if want := "a1 a2 b1 a3 a4"; got != want {
		t.Fatalf("execution order = %q, want %q", got, want)
	}
}

// TestTenantFairnessChurn extends TestTenantFairness to tenant churn: a
// tenant that joins mid-queue — after the incumbent's backlog is already
// waiting — still runs after at most one more incumbent job, and a tenant
// that drains out of the rotation and later rejoins gets the same bound a
// first-time tenant would, with no stale ring state in either direction.
func TestTenantFairnessChurn(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 16, Executors: 1})
	step := make(chan struct{}, 16)
	started := make(chan string, 16)
	var mu sync.Mutex
	var order []string
	s.execute = func(ctx context.Context, j *Job) (string, error) {
		started <- j.ID
		<-step
		mu.Lock()
		order = append(order, j.ID)
		mu.Unlock()
		return "stub result", nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	waitStart := func(want string) {
		t.Helper()
		select {
		case id := <-started:
			if id != want {
				t.Fatalf("started %q, want %q", id, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never started", want)
		}
	}

	// acme floods while its first job is in flight.
	mustSubmit(t, ts.URL, "acme", "a1", testSpec(), http.StatusAccepted)
	waitStart("a1")
	mustSubmit(t, ts.URL, "acme", "a2", testSpec(), http.StatusAccepted)
	mustSubmit(t, ts.URL, "acme", "a3", testSpec(), http.StatusAccepted)

	// a1 finishes and a2 starts — only then does beta join, mid-queue,
	// behind a3 in arrival order.
	step <- struct{}{}
	waitStart("a2")
	mustSubmit(t, ts.URL, "beta", "b1", testSpec(), http.StatusAccepted)
	mustSubmit(t, ts.URL, "acme", "a4", testSpec(), http.StatusAccepted)

	for i := 0; i < 4; i++ {
		step <- struct{}{}
	}
	for _, id := range []string{"a1", "a2", "a3", "a4", "b1"} {
		j, _ := s.Job(id)
		waitDone(t, j)
	}

	for len(started) > 0 {
		<-started // phase one's unconsumed start signals
	}

	// beta has drained out of the rotation entirely. acme floods again and
	// beta rejoins — the bound resets rather than carrying ring history.
	mustSubmit(t, ts.URL, "acme", "a5", testSpec(), http.StatusAccepted)
	waitStart("a5")
	mustSubmit(t, ts.URL, "acme", "a6", testSpec(), http.StatusAccepted)
	mustSubmit(t, ts.URL, "beta", "b2", testSpec(), http.StatusAccepted)
	for i := 0; i < 3; i++ {
		step <- struct{}{}
	}
	for _, id := range []string{"a5", "a6", "b2"} {
		j, _ := s.Job(id)
		waitDone(t, j)
	}

	mu.Lock()
	got := strings.Join(order, " ")
	mu.Unlock()
	// b1 waits out exactly one acme job (the in-flight a2), not acme's
	// backlog; the rejoined b2 likewise waits out only a6.
	if want := "a1 a2 b1 a3 a4 a5 a6 b2"; got != want {
		t.Fatalf("execution order = %q, want %q", got, want)
	}
}

// TestSubmitIdempotentAndConflict pins the (name, spec) identity rules:
// resubmitting an identical pair is a 200 no-op reporting the existing job,
// while the same name under a different spec is a 409.
func TestSubmitIdempotentAndConflict(t *testing.T) {
	s := newTestServer(t, Options{})
	s.execute = func(ctx context.Context, j *Job) (string, error) { return "stub result", nil }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mustSubmit(t, ts.URL, "", "job", testSpec(), http.StatusAccepted)
	mustSubmit(t, ts.URL, "", "job", testSpec(), http.StatusOK)
	other := testSpec()
	other.Seed = 99
	resp := doSubmit(t, ts.URL, "", "job", other)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting resubmit status = %d, want 409 (%s)", resp.StatusCode, raw)
	}
}

// TestSubmitValidation pins the submit-time 400s: specs the daemon cannot
// serve are rejected with actionable messages before anything queues.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	s.execute = func(ctx context.Context, j *Job) (string, error) { return "stub result", nil }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name    string
		spec    JobSpec
		wantErr string
	}{
		{"bad-table", JobSpec{Table: 9}, "table 9 does not exist"},
		{"figure-2", JobSpec{Figure: 2}, "not cell-addressed"},
		{"empty", JobSpec{}, "empty selection"},
		{"bad-dataset", JobSpec{Table: 4, Datasets: []string{"Atlantis"}}, `unknown dataset "Atlantis"`},
		{"bad-model", JobSpec{Table: 4, Models: []string{"GPT"}}, `unknown model "GPT"`},
		{"bad-method", JobSpec{Table: 4, Methods: []string{"Manual"}}, `unknown method "Manual"`},
	}
	for _, tc := range cases {
		resp := doSubmit(t, ts.URL, "", tc.name, tc.spec)
		var body struct {
			Error string `json:"error"`
		}
		err := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding 400 body: %v", tc.name, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (%s)", tc.name, resp.StatusCode, body.Error)
		}
		if !strings.Contains(body.Error, tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, body.Error, tc.wantErr)
		}
	}
	// Malformed JSON, unknown spec fields and oversized bodies are 400s
	// too, not a hang, a 500 or a silently widened job.
	raw := []struct {
		name, body, wantErr string
	}{
		{"malformed", "{", "bad request body"},
		{"unknown-field", `{"name": "typo", "spec": {"table": 4, "quick": true, "metods": ["SMARTFEAT"]}}`, `unknown field "metods"`},
		{"oversized", `{"name": "` + strings.Repeat("x", 2<<20) + `", "spec": {"table": 4}}`, "too large"},
	}
	for _, tc := range raw {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding 400 body: %v", tc.name, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (%s)", tc.name, resp.StatusCode, body.Error)
		}
		if !strings.Contains(body.Error, tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, body.Error, tc.wantErr)
		}
	}
	s.mu.Lock()
	admitted := len(s.jobs)
	s.mu.Unlock()
	if admitted != 0 {
		t.Fatalf("rejected submissions admitted %d job(s)", admitted)
	}
}

// TestDrainCompletesInFlightJob pins the SIGTERM drain path end to end on a
// real replayed job: draining stops admission (503), cancels the queued
// backlog, lets the in-flight job finish executing its cells, and the
// finished job's result is byte-identical to the sequential golden.
func TestDrainCompletesInFlightJob(t *testing.T) {
	spec := testSpec()
	fmDir, golden := recordSpec(t, spec)
	s := newTestServer(t, Options{
		Executors: 1, FMReplayDir: fmDir, Worker: "drainer", LeaseTTL: workerTTL,
	})
	// Gate the real executor so the job is reliably in flight when the drain
	// begins; everything downstream of the gate is the real replay-backed run.
	real := s.execute
	entered := make(chan struct{})
	proceed := make(chan struct{})
	s.execute = func(ctx context.Context, j *Job) (string, error) {
		if j.ID == "t4" {
			close(entered)
			<-proceed
		}
		return real(ctx, j)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A replay-backed daemon rejects jobs its recording cannot cover, at
	// submit time, with 400.
	uncovered := spec
	uncovered.Datasets = []string{"Tennis"}
	resp := doSubmit(t, ts.URL, "", "uncovered", uncovered)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "does not cover") {
		t.Fatalf("uncovered submit = %d (%s), want 400 mentioning coverage", resp.StatusCode, raw)
	}

	mustSubmit(t, ts.URL, "acme", "t4", spec, http.StatusAccepted)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("t4 never started")
	}
	// A second job queues behind the busy executor; the drain must cancel it.
	mustSubmit(t, ts.URL, "acme", "stuck", spec, http.StatusAccepted)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	for deadline := time.Now().Add(10 * time.Second); !s.Draining(); {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Draining: no new admissions, health reports it.
	resp = doSubmit(t, ts.URL, "acme", "late", spec)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}

	// Release the in-flight job; the drain completes it (no interruption).
	close(proceed)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v, want nil (job should finish inside the drain window)", err)
	}
	j, _ := s.Job("t4")
	if j.Status() != StatusCompleted {
		t.Fatalf("drained job status = %s, want completed", j.Status())
	}
	result, ok := j.Result()
	if !ok || result != golden {
		t.Fatalf("drained job result differs from sequential golden:\n%s\nvs\n%s", result, golden)
	}
	stuck, _ := s.Job("stuck")
	if stuck.Status() != StatusCanceled {
		t.Fatalf("queued job status after drain = %s, want canceled", stuck.Status())
	}

	// The result endpoint serves the completed text and per-cell artifacts
	// even while draining (reads stay up; only admission closed).
	resp, err = http.Get(ts.URL + "/v1/jobs/t4/result")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(raw) != golden {
		t.Fatalf("served result (%d) differs from golden", resp.StatusCode)
	}
	cell := spec.selection().Plan(spec.datasetNames(), spec.methodNames())[0]
	resp, err = http.Get(ts.URL + "/v1/jobs/t4/result?cell=" + cell.Key())
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !json.Valid(raw) {
		t.Fatalf("artifact endpoint = %d, body valid JSON = %v", resp.StatusCode, json.Valid(raw))
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/t4/result?cell=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus cell = %d, want 400", resp.StatusCode)
	}
}

// TestReplicasCooperate pins the multi-replica acceptance criterion: two
// daemon replicas sharing one run root, each receiving the same (name, spec)
// submission, drain the job cooperatively through the lease protocol — both
// complete, both serve the byte-identical golden, and the shared manifest
// shows every cell executed exactly once across the pair.
func TestReplicasCooperate(t *testing.T) {
	spec := testSpec()
	fmDir, golden := recordSpec(t, spec)
	root := t.TempDir()
	s1 := newTestServer(t, Options{RunRoot: root, FMReplayDir: fmDir, Worker: "ra", LeaseTTL: workerTTL})
	s2 := newTestServer(t, Options{RunRoot: root, FMReplayDir: fmDir, Worker: "rb", LeaseTTL: workerTTL})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	mustSubmit(t, ts1.URL, "acme", "coop", spec, http.StatusAccepted)
	mustSubmit(t, ts2.URL, "acme", "coop", spec, http.StatusAccepted)
	j1, ok1 := s1.Job("coop")
	j2, ok2 := s2.Job("coop")
	if !ok1 || !ok2 {
		t.Fatal("job missing on a replica")
	}
	waitDone(t, j1)
	waitDone(t, j2)

	for i, j := range []*Job{j1, j2} {
		if j.Status() != StatusCompleted {
			v := j.view()
			t.Fatalf("replica %d job status = %s (%s)", i+1, j.Status(), v.Error)
		}
		result, _ := j.Result()
		if result != golden {
			t.Fatalf("replica %d result differs from sequential golden:\n%s\nvs\n%s", i+1, result, golden)
		}
	}

	// The shared manifest proves the partition: every planned cell completed
	// exactly once, attributed across the two replica worker ids.
	plan := spec.selection().Plan(spec.datasetNames(), spec.methodNames())
	prog, err := grid.PlanProgress(filepath.Join(root, "coop"), plan)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Completed != len(plan) || prog.Failed != 0 {
		t.Fatalf("progress = %+v, want %d completed", prog, len(plan))
	}
	executed := 0
	for w, n := range prog.ByWorker {
		if w != "ra" && w != "rb" {
			t.Fatalf("cell completed by unexpected worker %q (%+v)", w, prog.ByWorker)
		}
		executed += n
	}
	if executed != len(plan) {
		t.Fatalf("cells executed across replicas = %d, want %d (each exactly once)", executed, len(plan))
	}

	// Both replicas' status endpoints fold the same shared progress.
	for _, url := range []string{ts1.URL, ts2.URL} {
		resp, err := http.Get(url + "/v1/jobs/coop")
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.Cells.Completed != len(plan) {
			t.Fatalf("status fold at %s = %+v, want %d completed", url, v.Cells, len(plan))
		}
	}
}

// TestMetricsEndpoint pins the serve_* series appearing on the daemon's own
// /metrics endpoint after traffic has flowed.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	s.execute = func(ctx context.Context, j *Job) (string, error) { return "stub result", nil }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mustSubmit(t, ts.URL, "", "m1", testSpec(), http.StatusAccepted)
	j, _ := s.Job("m1")
	waitDone(t, j)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"serve_queue_depth",
		"serve_jobs_running",
		"serve_jobs_admitted_total",
		"serve_jobs_rejected_total",
		"serve_jobs_completed_total",
		"serve_request_seconds_bucket",
	} {
		if !strings.Contains(string(raw), series) {
			t.Fatalf("/metrics missing %s:\n%s", series, raw)
		}
	}
}

// TestSanitizeID pins the job-ID alphabet: anything that could escape the
// run root becomes a harmless dash.
func TestSanitizeID(t *testing.T) {
	cases := map[string]string{
		"t4":            "t4",
		"../escape":     "..-escape", // harmless: no path separator survives
		"..":            "",          // would name the run root's parent
		".":             "",
		"a/b\\c":        "a-b-c",
		"ok-1.2_three":  "ok-1.2_three",
		"spaces & such": "spaces---such",
	}
	for in, want := range cases {
		if got := sanitizeID(in); got != want {
			t.Errorf("sanitizeID(%q) = %q, want %q", in, got, want)
		}
	}
}
