// Command perfbench is the repository's benchmark. One process sets up one
// workload, measures it, checks its outputs and prints one JSON result as
// the last line of standard output. Run it from the repository root:
//
//	bash perfbench/run.sh --workload featurize --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md in this directory for why each exists and which
// layers it loads):
//
//	grid-replay   the CLI batch path: the quick Table-4 grid over Diabetes
//	              and Tennis, replayed from FM shards recorded in set-up
//	featurize     the library path: smartfeat's pipeline on all eight
//	              datasets with live simulated FMs behind cached gateways
//	serve-bursts  the daemon path: an open-loop schedule of job bursts
//	              against an in-process smartfeatd server
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same
// measurement, then the workload once more with spans on, then (for
// grid-replay) a probe phase, and prints the per-layer metrics; the span
// trace and a "where the time went" table land in .bench_out/<workload>/.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"smartfeat/internal/obs"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0. Each is
// meaningful (and never zero) on every workload; workload-specific results
// such as job latency and FM spend are per-layer metrics below. CPU is
// user time only: system time here is mostly minor page faults whose cost
// drifts with the host (serve-bursts: 1.0-2.9 s for the same ~180k faults),
// so it is a per-layer metric.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_user_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every workload reports with --trace 1. A layer
// the workload bypasses reports 0.
var perLayer = []metricDef{
	{"job_p50_ms", "ms"}, {"job_p95_ms", "ms"}, {"slo_miss_frac", "ratio"},
	{"serve.submit_ms.p50", "ms"}, {"serve.submit_ms.p95", "ms"},
	{"serve.queue_wait_ms.p50", "ms"}, {"serve.queue_wait_ms.p95", "ms"},
	{"serve.exec_ms.p50", "ms"}, {"serve.exec_ms.p95", "ms"},
	{"serve.read_ms.p50", "ms"}, {"serve.queue_high_water", "count"},
	{"serve.rejected", "count"}, {"loadgen.lag_ms.p95", "ms"},
	{"grid.run_s", "s"}, {"grid.cell_s", "s"}, {"grid.overhead_ms_per_job", "ms"},
	{"lease.claims", "count"},
	{"cell_s.Initial-AUC", "s"}, {"cell_s.SMARTFEAT", "s"}, {"cell_s.CAAFE", "s"},
	{"cell_s.Featuretools", "s"}, {"cell_s.AutoFeat", "s"},
	{"ml.fit_s.LR", "s"}, {"ml.fit_s.NB", "s"}, {"ml.fit_s.RF", "s"},
	{"ml.fit_s.ET", "s"}, {"ml.fit_s.DNN", "s"}, {"ml.evaluate_s", "s"},
	{"core.run_s", "s"}, {"core.self_s", "s"}, {"core.candidates", "count"},
	{"core.features_added", "count"}, {"core.accept_ratio", "ratio"},
	{"fmgate.self_ms", "ms"}, {"fmgate.requests", "count"},
	{"fmgate.upstream_calls", "count"}, {"fmgate.cache_hits", "count"},
	{"fmgate.hit_ratio", "ratio"}, {"fmgate.replayed", "count"},
	{"fm.model_s.selector", "s"}, {"fm.model_s.generator", "s"},
	{"fm.calls.selector", "count"}, {"fm.calls.generator", "count"},
	{"fm_calls", "count"}, {"fm_tokens", "count"}, {"fm_cost_usd", "usd"},
	{"datasets.load_s", "s"},
	{"alloc_mb", "MB"}, {"gc.cycles", "count"}, {"trace.overhead_frac", "ratio"},
	{"cpu_sys_s", "s"}, {"minor_faults", "count"},
}

// workload is one benchmark workload.
type workload interface {
	// setup prepares the workload's inputs from scratch. It runs several
	// times (setup_s is the median); the last set-up is the one measured.
	setup(ctx context.Context, rep int) error
	// run executes the measured batch once. On the traced pass ctx carries
	// a tracer.
	run(ctx context.Context, traced bool) (*outcome, error)
	// layers fills the per-layer metrics from an untraced pass and a traced
	// pass with its spans, and returns the "where the time went" table.
	layers(ctx context.Context, plain, traced *pass, spans []span, m map[string]float64) (string, error)
	close()
}

// outcome is what one run of a workload reports about itself.
type outcome struct {
	attempted, failed int
	// counts must repeat exactly across every pass of one invocation.
	counts map[string]float64
	// phase is recorded in the stamp (jobs sent/succeeded/failed, lateness).
	phase map[string]any
	// detail carries workload-specific samples to layers.
	detail any
	// check, when set, verifies outputs after the measurement stops and
	// returns the number of failed operations.
	check func() int
	// peakMB, when set, replaces the pass's peak RSS. serve-bursts sets it
	// to the median over bursts of each burst's peak: the peak of a whole
	// pass is the largest of 30 bursts' and moved by up to half between runs.
	peakMB float64
	// units, when set, splits the pass into named parts that every pass
	// repeats; wall_s and cpu_user_s then sum each part's median over
	// passes instead of taking the median pass.
	units map[string]unitCost
}

// unitCost is the wall and user CPU time of one part of a pass.
type unitCost struct{ wall, user time.Duration }

// pass is one measured run: the workload's outcome plus process-level
// measurements taken around it.
type pass struct {
	*outcome
	wall      time.Duration
	user, sys time.Duration // CPU time
	faults    int64         // minor page faults
	peakMB    float64
	rssReset  bool // false: peakMB is the process's lifetime peak
	allocMB   float64
	gcCycles  uint64
}

// options are the command-line settings a workload sees.
type options struct {
	seed    int64
	seconds int
	sloMS   float64
	tmp     string // scratch directory inside the checkout
}

var workloads = map[string]struct {
	// setupReps trades set-up cost for a steadier setup_s median: the
	// sub-second set-ups repeat five or nine times; the grid set-up records
	// a whole grid, so it repeats only twice.
	setupReps int
	// passes is how many measured passes run: two grids (about 30 s), four
	// featurize rounds (per-dataset medians), one serve-bursts schedule of
	// --seconds bursts. The count is fixed because every fmgate.New stays
	// reachable from obs.Default with its cache, so each pass's peak RSS is
	// above the one before, and because a pass count that follows host
	// speed makes the fast runs' medians cover more passes than the slow
	// runs'.
	passes int
	make   func(options) workload
}{
	"grid-replay":  {2, 2, newGridReplay},
	"featurize":    {9, 4, newFeaturize},
	"serve-bursts": {5, 1, newServeBursts},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "grid-replay, featurize or serve-bursts")
	seed := flag.Int64("seed", 1, "workload seed: orders batch items and shapes the burst schedule")
	seconds := flag.Int("seconds", 30, "serve-bursts sends one burst per second for this long; grid-replay (2 passes, about 30 s) and featurize (4 rounds) run fixed batches")
	traceFlag := flag.Int("trace", 0, "1 = per-layer run: untraced pass, traced pass and probes")
	sloMS := flag.Float64("slo-ms", 500, "serve-bursts latency limit behind slo_miss_frac")
	outDir := flag.String("out", ".bench_out", "directory for traces, layer tables and stamps")
	writeDigests := flag.Bool("write-digests", false, "regenerate "+digestFile+" from a featurize run instead of checking against it")
	flag.Parse()

	if *writeDigests {
		return regenerateDigests(context.Background())
	}
	spec, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want grid-replay, featurize or serve-bursts)", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	dir := filepath.Join(*outDir, *name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	w := spec.make(options{seed: *seed, seconds: *seconds, sloMS: *sloMS, tmp: tmp})
	defer w.close()
	ctx := context.Background()

	var setups []float64
	for rep := 0; rep < spec.setupReps; rep++ {
		t0 := time.Now()
		if err := w.setup(ctx, rep); err != nil {
			return fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var passes []*pass
	for range spec.passes {
		p, err := measure(ctx, w, false)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}

	res := result{Metrics: make(map[string]metricValue)}
	all := passes
	if *traceFlag == 1 {
		m, traced, err := perLayerRun(ctx, w, passes[0], dir)
		if err != nil {
			return err
		}
		all = append(all, traced)
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{m[d.name], d.unit}
		}
	} else {
		v := endToEndValues(setups, passes)
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{v[d.name], d.unit}
		}
	}

	var phases []map[string]any
	for _, p := range all {
		res.Attempted += p.attempted
		res.Failed += p.failed
		ph := map[string]any{"wall_s": p.wall.Seconds(), "cpu_user_s": p.user.Seconds(), "cpu_sys_s": p.sys.Seconds(), "minor_faults": p.faults,
			"peak_rss_mb": p.peakMB, "attempted": p.attempted, "failed": p.failed}
		for k, v := range p.phase {
			ph[k] = v
		}
		phases = append(phases, ph)
	}
	drift := countMismatches(all)
	for _, m := range drift {
		fmt.Fprintln(os.Stderr, "perfbench: count drift:", m)
	}
	res.Correct = res.Failed == 0 && len(drift) == 0

	stamp, err := json.Marshal(map[string]any{"stamp": map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traceFlag,
		"machine": newMachineStamp(), "setup_s": setups, "passes": phases,
		"counts": all[0].counts, "count_drift": drift, "peak_rss_reset": all[0].rssReset,
	}})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "stamp.json"), stamp, 0o644); err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(stamp))
	fmt.Println(string(out))
	return nil
}

// endToEndValues are the medians over set-ups and measured passes. When
// passes are split into units, wall and user time are the sums of the
// units' medians: a slow stretch then costs only the units it overlapped.
func endToEndValues(setups []float64, passes []*pass) map[string]float64 {
	var wall, user, peak []float64
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
		user = append(user, p.user.Seconds())
		peak = append(peak, p.peakMB)
	}
	v := map[string]float64{
		"setup_s": median(setups), "wall_s": median(wall),
		"cpu_user_s": median(user), "peak_rss_mb": median(peak),
	}
	if passes[0].units != nil {
		v["wall_s"], v["cpu_user_s"] = 0, 0
		for name := range passes[0].units {
			var uw, uu []float64
			for _, p := range passes {
				uw = append(uw, p.units[name].wall.Seconds())
				uu = append(uu, p.units[name].user.Seconds())
			}
			v["wall_s"] += median(uw)
			v["cpu_user_s"] += median(uu)
		}
	}
	return v
}

// perLayerRun runs the workload once more with a tracer, then lets the
// workload derive its per-layer metrics from the untraced pass plain, the
// traced pass and its spans. The trace and the "where the time went" table
// are written to dir.
func perLayerRun(ctx context.Context, w workload, plain *pass, dir string) (map[string]float64, *pass, error) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, "perfbench")
	traced, err := measure(obs.WithTracer(ctx, tr), w, true)
	if err != nil {
		return nil, nil, err
	}
	if err := tr.Close(); err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	spans, err := parseTrace(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	m := map[string]float64{
		"trace.overhead_frac": traced.wall.Seconds()/plain.wall.Seconds() - 1,
		"alloc_mb":            plain.allocMB,
		"gc.cycles":           float64(plain.gcCycles),
		"cpu_sys_s":           plain.sys.Seconds(),
		"minor_faults":        float64(plain.faults),
	}
	table, err := w.layers(ctx, plain, traced, spans, m)
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.jsonl"), buf.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(table), 0o644); err != nil {
		return nil, nil, err
	}
	fmt.Fprint(os.Stderr, table)
	return m, traced, nil
}

// measure runs the workload once, measuring wall and CPU time, the peak
// resident set and runtime allocation around it.
func measure(ctx context.Context, w workload, traced bool) (*pass, error) {
	settle()
	reset := resetPeakRSS()
	a0, g0 := runtimeCounters()
	u0, s0 := cpuTime()
	f0 := minorFaults()
	t0 := time.Now()
	o, err := w.run(ctx, traced)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	u1, s1 := cpuTime()
	p := &pass{outcome: o, wall: wall, user: u1 - u0, sys: s1 - s0, faults: minorFaults() - f0,
		peakMB: peakRSSMB(), rssReset: reset}
	if o.peakMB > 0 {
		p.peakMB = o.peakMB
	}
	a1, g1 := runtimeCounters()
	p.allocMB = float64(a1-a0) / (1 << 20)
	p.gcCycles = g1 - g0
	if o.check != nil {
		o.failed += o.check()
	}
	return p, nil
}

// countMismatches lists every count that differs from the first pass's
// value in a later pass: counts are exact by construction, so any drift is
// nondeterminism in the program and fails the invocation.
func countMismatches(passes []*pass) []string {
	var out []string
	first := passes[0].counts
	keys := make([]string, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, p := range passes[1:] {
		for _, k := range keys {
			if v, ok := p.counts[k]; !ok || v != first[k] {
				out = append(out, fmt.Sprintf("pass %d %s = %v, pass 0 = %v", i+1, k, v, first[k]))
			}
		}
		if len(p.counts) != len(first) {
			out = append(out, fmt.Sprintf("pass %d reports %d counts, pass 0 %d", i+1, len(p.counts), len(first)))
		}
	}
	return out
}
