package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"smartfeat/internal/datasets"
	"smartfeat/internal/experiments"
	"smartfeat/internal/fmgate"
	"smartfeat/internal/grid"
	"smartfeat/internal/metrics"
	"smartfeat/internal/ml"
	"smartfeat/internal/obs"
)

// gridDatasets are the grid-replay datasets: the ROADMAP's replayed quick
// grid, whose CAAFE cell (DNN validation fits) dominates.
var gridDatasets = []string{"Diabetes", "Tennis"}

// gridReplay runs grid.Runner sequentially (Workers=1) over the quick
// Table-4 plan, replaying FM completions from shards that set-up recorded
// with the same build. The config seed is fixed, because it changes the
// datasets and with them the amount of work; --seed orders the cells.
type gridReplay struct {
	opts  options
	cfg   experiments.Config
	sel   grid.Selection
	plan  []grid.Cell
	fmDir string // shards of the last set-up's recording
	want  string // tables the recording run folded
	loadS []float64
	recs  []map[string]float64 // registry deltas of each recording
	runs  int
}

func newGridReplay(opts options) workload {
	cfg := experiments.QuickConfig()
	cfg.Workers = 1
	sel := grid.Selection{Table: 4}
	plan := sel.Plan(gridDatasets, nil)
	ordered := make([]grid.Cell, len(plan))
	for i, j := range permute(opts.seed, len(plan)) {
		ordered[i] = plan[j]
	}
	return &gridReplay{opts: opts, cfg: cfg, sel: sel, plan: ordered}
}

func (g *gridReplay) setup(ctx context.Context, rep int) error {
	t0 := time.Now()
	for _, n := range gridDatasets {
		if _, err := datasets.Load(n, g.cfg.Seed); err != nil {
			return err
		}
	}
	g.loadS = append(g.loadS, time.Since(t0).Seconds())
	dir := filepath.Join(g.opts.tmp, fmt.Sprintf("record-%d", rep))
	stores, err := fmgate.NewRecordStoreSet(filepath.Join(dir, "fm"), fmgate.StoreSetManifest{
		ConfigHash: g.cfg.Fingerprint(),
		Seed:       g.cfg.Seed,
		Budget:     g.cfg.SamplingBudget,
	})
	if err != nil {
		return err
	}
	before := snapshot()
	rec := *g
	rec.cfg.Workers = runtime.NumCPU() // the shards replay the same at any Workers
	tables, _, err := rec.runGrid(ctx, filepath.Join(dir, "run"), stores)
	if cerr := stores.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("recording: %w", err)
	}
	g.recs = append(g.recs, snapshot().delta(before))
	if rep > 0 {
		if tables != g.want {
			return fmt.Errorf("recording %d folded different tables than recording 0", rep)
		}
		if err := sameCounts(g.recs[0], g.recs[rep]); err != nil {
			return fmt.Errorf("recording %d: %w", rep, err)
		}
	}
	g.want, g.fmDir = tables, filepath.Join(dir, "fm")
	return nil
}

// runGrid runs the plan through a fresh run directory and folds Table 4/5
// exactly as cmd/experiments prints them.
func (g *gridReplay) runGrid(ctx context.Context, dir string, stores *fmgate.StoreSet) (string, *grid.RunResult, error) {
	runner := &grid.Runner{Config: g.cfg, Dir: dir, Name: strings.Join(gridDatasets, ","), Stores: stores}
	ctx, sp := obs.StartSpan(ctx, "grid.run", obs.String("op", filepath.Base(dir)))
	res, err := runner.Run(ctx, g.plan)
	sp.End()
	if err != nil {
		return "", nil, err
	}
	var buf bytes.Buffer
	g.sel.Render(&buf, res, gridDatasets, g.cfg, "")
	return buf.String(), res, nil
}

// gridDetail is one replay pass's grid timing: Runner.Run and the summed
// seconds of its executed cells.
type gridDetail struct{ runS, cellS float64 }

func (g *gridReplay) run(ctx context.Context, _ bool) (*outcome, error) {
	stores, err := fmgate.OpenReplayStoreSet(g.fmDir, g.cfg.Fingerprint())
	if err != nil {
		return nil, err
	}
	defer stores.Close()
	g.runs++
	before, cells0 := snapshot(), cellSeconds()
	t0 := time.Now()
	tables, res, err := g.runGrid(ctx, filepath.Join(g.opts.tmp, fmt.Sprintf("replay-%d", g.runs)), stores)
	runS := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	d := snapshot().delta(before)
	o := &outcome{attempted: len(g.plan) + 1, counts: d, detail: gridDetail{runS: runS, cellS: cellSeconds() - cells0}}
	for _, out := range res.Outcomes {
		if out.Status != grid.StatusCompleted {
			fmt.Fprintf(os.Stderr, "perfbench: cell %s %s: %v\n", out.Cell, out.Status, out.Err)
			o.failed++
		}
	}
	if tables != g.want {
		fmt.Fprintln(os.Stderr, "perfbench: replayed tables differ from the recording run's tables")
		o.failed++
	}
	o.phase = map[string]any{"cells": len(g.plan), "failed": o.failed}
	return o, nil
}

func (g *gridReplay) layers(ctx context.Context, plain, traced *pass, spans []span, m map[string]float64) (string, error) {
	for k, v := range plain.counts {
		m[k] = v
	}
	gd := plain.detail.(gridDetail)
	m["grid.run_s"] = gd.runS
	m["grid.cell_s"] = gd.cellS
	m["grid.overhead_ms_per_job"] = 1000 * (gd.runS - gd.cellS)
	m["fmgate.hit_ratio"] = ratio(m["fmgate.cache_hits"], m["fmgate.requests"])
	m["datasets.load_s"] = median(g.loadS)
	if err := g.probe(ctx, m); err != nil {
		return "", err
	}
	return layerTable("grid-replay wall (traced pass)", traced.wall, layerSelf(spans)), nil
}

// probe splits the grid's time by method and by model outside the grid:
// each cell re-run alone through experiments.RunCell (the call the runner
// makes per cell) over the same replay shards, EvaluateFrame on each cell's
// output frame, and each downstream model fitted on each dataset's
// training matrix.
func (g *gridReplay) probe(ctx context.Context, m map[string]float64) error {
	stores, err := fmgate.OpenReplayStoreSet(g.fmDir, g.cfg.Fingerprint())
	if err != nil {
		return err
	}
	defer stores.Close()
	for _, c := range g.plan {
		cfg := g.cfg
		if cfg.FMStore, err = stores.Shard(c.Key()); err != nil {
			return err
		}
		cfg.FMStoreReplay = true
		t0 := time.Now()
		res, err := experiments.RunCell(ctx, c.Dataset, c.Method, cfg)
		m["cell_s."+strings.ReplaceAll(c.Method, " ", "-")] += time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("probe %s: %w", c, err)
		}
		d, err := datasets.Load(c.Dataset, g.cfg.Seed)
		if err != nil {
			return err
		}
		frame := res.Frame
		if frame == nil {
			frame = d.Frame.DropNA()
		}
		t0 = time.Now()
		if _, _, err := experiments.EvaluateFrame(ctx, frame, d.Target, g.cfg.Models, g.cfg); err != nil {
			return fmt.Errorf("probe evaluate %s: %w", c, err)
		}
		m["ml.evaluate_s"] += time.Since(t0).Seconds()
	}
	for _, n := range gridDatasets {
		if err := g.probeFits(n, m); err != nil {
			return err
		}
	}
	return nil
}

// probeFits fits each downstream model, sized as the quick configuration
// sizes it, on the dataset's training split.
func (g *gridReplay) probeFits(name string, m map[string]float64) error {
	d, err := datasets.Load(name, g.cfg.Seed)
	if err != nil {
		return err
	}
	f := d.Frame.DropNA().FactorizeAll()
	var features []string
	for _, n := range f.Names() {
		if n != d.Target {
			features = append(features, n)
		}
	}
	X, err := f.ColMatrix(features)
	if err != nil {
		return err
	}
	y, err := f.IntLabels(d.Target)
	if err != nil {
		return err
	}
	train := trainSplit(X.Rows(), g.cfg)
	Xtr, ytr := X.TakeRows(train), metrics.TakeLabels(y, train)
	for _, model := range g.cfg.Models {
		clf, err := quickModel(model, g.cfg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := ml.NewPipeline(clf).Fit(Xtr, ytr); err != nil {
			return fmt.Errorf("probe fit %s on %s: %w", model, name, err)
		}
		m["ml.fit_s."+model] += time.Since(t0).Seconds()
	}
	return nil
}

// quickModel builds a downstream model sized as the quick configuration
// sizes it (forest size and DNN epochs), seeded like EvaluateFrame seeds it.
func quickModel(name string, cfg experiments.Config) (ml.Classifier, error) {
	seed := cfg.Seed + int64(len(name))
	switch name {
	case "RF":
		return ml.NewRandomForest(cfg.ForestTrees, seed), nil
	case "ET":
		return ml.NewExtraTrees(cfg.ForestTrees, seed), nil
	case "DNN":
		m := ml.NewMLP(seed)
		m.Epochs = cfg.MLPEpochs
		return m, nil
	}
	return ml.New(name, seed)
}

// trainSplit is EvaluateFrame's training split: the shared 75/25 split,
// capped at MaxTrainRows.
func trainSplit(n int, cfg experiments.Config) []int {
	train, _ := metrics.TrainTestSplit(n, cfg.TestFrac, cfg.Seed)
	if cfg.MaxTrainRows > 0 && len(train) > cfg.MaxTrainRows {
		train = train[:cfg.MaxTrainRows]
	}
	return train
}

func (g *gridReplay) close() {}
