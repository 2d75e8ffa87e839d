package experiments

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"smartfeat/internal/datasets"
)

// parallelTestConfig is a small configuration that still exercises every
// method and model family.
func parallelTestConfig() Config {
	cfg := QuickConfig()
	cfg.MaxTrainRows = 400
	cfg.MLPEpochs = 2
	cfg.ForestTrees = 8
	cfg.SamplingBudget = 4
	cfg.CAAFEIterations = 2
	return cfg
}

func TestForEachIndexCoversAllTasks(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var hits [57]int32
		ForEachIndex(workers, len(hits), func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, h)
			}
		}
	}
	ForEachIndex(4, 0, func(int) { t.Fatal("no tasks expected") })
}

// TestEvaluateFrameParallelMatchesSequential pins the per-model pool inside
// a single frame evaluation.
func TestEvaluateFrameParallelMatchesSequential(t *testing.T) {
	d, err := datasets.Load("Tennis", parallelTestConfig().Seed)
	if err != nil {
		t.Fatal(err)
	}
	clean := d.Frame.DropNA()
	run := func(workers int) map[string]float64 {
		cfg := parallelTestConfig()
		cfg.Workers = workers
		aucs, _, err := EvaluateFrame(context.Background(), clean, d.Target, cfg.Models, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return aucs
	}
	seq, par := run(1), run(6)
	if len(seq) != len(parallelTestConfig().Models) {
		t.Fatalf("sequential evaluation covered %d models: %v", len(seq), seq)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("AUCs differ: %v vs %v", seq, par)
	}
}

// TestRunCAAFEParallelMatchesSequential pins the per-downstream-model CAAFE
// fan-out: every AUC, failure marker, retained feature and aggregate count
// must be bit-identical to the sequential loop.
func TestRunCAAFEParallelMatchesSequential(t *testing.T) {
	d, err := datasets.Load("Diabetes", parallelTestConfig().Seed)
	if err != nil {
		t.Fatal(err)
	}
	clean := d.Frame.DropNA()
	run := func(workers int) MethodResult {
		cfg := parallelTestConfig()
		cfg.Workers = workers
		return RunCAAFE(context.Background(), d, clean, cfg)
	}
	seq := run(1)
	par := run(6)
	if !reflect.DeepEqual(seq.AUCs, par.AUCs) {
		t.Fatalf("AUCs differ: %v vs %v", seq.AUCs, par.AUCs)
	}
	if !reflect.DeepEqual(seq.FailedModels, par.FailedModels) {
		t.Fatalf("failures differ: %v vs %v", seq.FailedModels, par.FailedModels)
	}
	if seq.Generated != par.Generated || seq.Selected != par.Selected {
		t.Fatalf("counts differ: gen %d/%d sel %d/%d", seq.Generated, par.Generated, seq.Selected, par.Selected)
	}
	if !reflect.DeepEqual(seq.NewColumns, par.NewColumns) {
		t.Fatalf("columns differ: %v vs %v", seq.NewColumns, par.NewColumns)
	}
	if (seq.Err == nil) != (par.Err == nil) {
		t.Fatalf("errors differ: %v vs %v", seq.Err, par.Err)
	}
}
