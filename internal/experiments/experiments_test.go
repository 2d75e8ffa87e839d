package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"smartfeat/internal/core"
	"smartfeat/internal/datasets"
)

// tinyConfig keeps integration tests fast: two small datasets, scaled-down
// models.
func tinyConfig() Config {
	cfg := QuickConfig()
	cfg.Models = []string{"LR", "NB"}
	cfg.MaxTrainRows = 500
	cfg.SamplingBudget = 4
	cfg.CAAFEIterations = 3
	return cfg
}

func TestRunCellProducesAllMethods(t *testing.T) {
	cfg := tinyConfig()
	results := make(map[string]MethodResult)
	for _, m := range ComparisonMethods() {
		res, err := RunCell(context.Background(), "Diabetes", m, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Method != m {
			t.Fatalf("cell %s reports method %q", m, res.Method)
		}
		results[m] = res
	}
	if len(results[MethodInitial].AUCs) == 0 {
		t.Fatal("initial evaluation empty")
	}
	sf := results[MethodSmartfeat]
	if sf.Err != nil {
		t.Fatalf("smartfeat failed: %v", sf.Err)
	}
	if sf.Generated == 0 || sf.Frame == nil {
		t.Fatal("smartfeat produced nothing")
	}
	if avg, ok := sf.AvgAUC(); !ok || avg <= 0 || avg > 100 {
		t.Fatalf("avg AUC out of range: %v %v", avg, ok)
	}
	if _, err := RunCell(context.Background(), "Diabetes", "NoSuchMethod", cfg); err == nil {
		t.Fatal("unknown method should fail the cell")
	}
}

func TestMethodResultAggregates(t *testing.T) {
	r := MethodResult{AUCs: map[string]float64{"LR": 80, "NB": 70, "RF": 90}}
	if avg, ok := r.AvgAUC(); !ok || avg != 80 {
		t.Fatalf("avg = %v", avg)
	}
	if med, ok := r.MedianAUC(); !ok || med != 80 {
		t.Fatalf("median = %v", med)
	}
	if !r.SupportsAllModels([]string{"LR", "NB"}) {
		t.Fatal("supports check wrong")
	}
	if r.SupportsAllModels([]string{"LR", "DNN"}) {
		t.Fatal("missing model should fail the check")
	}
	empty := MethodResult{}
	if _, ok := empty.AvgAUC(); ok {
		t.Fatal("empty should not aggregate")
	}
}

func TestTable3String(t *testing.T) {
	out := Table3String(tinyConfig())
	for _, name := range []string{"Diabetes", "Tennis", "41189"} {
		if !strings.Contains(out, name) {
			t.Fatalf("table 3 missing %s:\n%s", name, out)
		}
	}
}

// TestComparisonFromCellsShape pins the Tables 4/5 fold over synthetic
// cells: both aggregates, the partial-model underline, a method-level "-",
// and the distinct miss markers of failed and skipped cells.
func TestComparisonFromCellsShape(t *testing.T) {
	cfg := tinyConfig()
	names := []string{"Diabetes", "Tennis"}
	full := map[string]float64{"LR": 80, "NB": 60}
	get := func(dataset, method string) (MethodResult, CellState) {
		switch {
		case dataset == "Tennis" && method == MethodInitial:
			return MethodResult{}, CellFailed
		case dataset == "Tennis":
			return MethodResult{}, CellSkipped
		case method == MethodCAAFE:
			return MethodResult{Method: method, AUCs: map[string]float64{"LR": 90}}, CellCompleted
		case method == MethodAutoFeat:
			return MethodResult{Method: method, Err: errors.New("timeout")}, CellCompleted
		}
		return MethodResult{Method: method, AUCs: full}, CellCompleted
	}
	avg, median := ComparisonFromCells(names, cfg, get)
	if avg.Aggregate != "average" || median.Aggregate != "median" {
		t.Fatal("aggregates mislabeled")
	}
	if avg.Initial["Diabetes"] != 70 || median.Initial["Diabetes"] != 70 {
		t.Fatalf("initial = %v / %v", avg.Initial, median.Initial)
	}
	if avg.Cells[MethodSmartfeat]["Diabetes"] != 70 || avg.Partial[MethodSmartfeat]["Diabetes"] {
		t.Fatalf("smartfeat cell = %v partial=%v", avg.Cells[MethodSmartfeat], avg.Partial[MethodSmartfeat])
	}
	if !avg.Partial[MethodCAAFE]["Diabetes"] {
		t.Fatal("a method missing a model must be marked partial")
	}
	if _, ok := avg.Cells[MethodAutoFeat]["Diabetes"]; ok {
		t.Fatal("a method-level failure must leave its cell empty")
	}
	if avg.Missing[MethodInitial]["Tennis"] != "failed" || avg.Missing[MethodSmartfeat]["Tennis"] != "skipped" {
		t.Fatalf("missing marks = %v", avg.Missing)
	}
	if _, ok := avg.Missing[MethodAutoFeat]["Diabetes"]; ok {
		t.Fatal("a completed cell with a method error is a result, not a miss")
	}
	s := avg.String()
	for _, want := range []string{"SMARTFEAT", "Diabetes", "!", "?"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render lacks %q:\n%s", want, s)
		}
	}
}

func TestTable7Cells(t *testing.T) {
	var rows []AblationRow
	for _, c := range Table7Configs() {
		row, err := Table7Cell(context.Background(), "Tennis", c, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 6 {
		t.Fatalf("want 6 configurations, got %d", len(rows))
	}
	if rows[0].Config != "Initial" || rows[5].Config != "all" {
		t.Fatalf("config order wrong: %v %v", rows[0].Config, rows[5].Config)
	}
	out := Table7String(rows, tinyConfig().Models)
	if !strings.Contains(out, "+Binary") {
		t.Fatalf("render broken:\n%s", out)
	}
	if _, err := Table7Cell(context.Background(), "Tennis", "+Nothing", tinyConfig()); err == nil {
		t.Fatal("unknown configuration should fail the cell")
	}
}

func TestFigure1CostsScaleWithRows(t *testing.T) {
	cfg := tinyConfig()
	var points []InteractionCost
	for _, n := range []int{50, 500} {
		point, err := Figure1Cell(context.Background(), n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, point)
	}
	// Row-level calls scale linearly with rows.
	if points[0].RowCalls != 50 || points[1].RowCalls != 500 {
		t.Fatalf("row calls: %d, %d", points[0].RowCalls, points[1].RowCalls)
	}
	// Feature-level calls do not scale with rows (same schema).
	ratio := float64(points[1].FeatureCalls) / float64(points[0].FeatureCalls)
	if ratio > 2 {
		t.Fatalf("feature-level calls should not scale with rows: %d vs %d",
			points[0].FeatureCalls, points[1].FeatureCalls)
	}
	// Row-level cost grows linearly with rows while feature-level cost is
	// flat, so the row/feature cost ratio must grow ~10× between the sizes.
	r0 := points[0].RowCostUSD / points[0].FeatureCostUSD
	r1 := points[1].RowCostUSD / points[1].FeatureCostUSD
	if r1 < 5*r0 {
		t.Fatalf("row/feature cost ratio should scale with rows: %.4f vs %.4f", r0, r1)
	}
	// Latency crosses over much earlier: at 500 rows the sequential row
	// completions already take longer than the whole pipeline.
	if points[1].RowLatency < points[1].FeatureLatency {
		t.Fatalf("row-level latency should dominate at 500 rows: %s vs %s",
			points[1].RowLatency, points[1].FeatureLatency)
	}
	if !strings.Contains(Figure1String(points), "rows") {
		t.Fatal("figure render broken")
	}
}

func TestFigure2Walkthrough(t *testing.T) {
	out, err := Figure2Walkthrough(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Bucketize_Age") {
		t.Fatalf("walkthrough missing the bucketized age feature:\n%s", out)
	}
	if !strings.Contains(out, "boundaries: [21") {
		t.Fatalf("walkthrough missing the 21-year boundary:\n%s", out)
	}
}

func TestDescriptionsAblation(t *testing.T) {
	cfg := tinyConfig()
	full, err := DescriptionsCell(context.Background(), "Tennis", true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	namesOnly, err := DescriptionsCell(context.Background(), "Tennis", false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	abl := DescriptionsAblationFromCells("Tennis", full, namesOnly)
	if abl.WithAvg <= 0 || abl.NamesOnlyAvg <= 0 {
		t.Fatalf("ablation values: %+v", abl)
	}
	if !strings.Contains(abl.String(), "names only") {
		t.Fatal("render broken")
	}
}

func TestTable6Cells(t *testing.T) {
	var rows []ImportanceRow
	for _, m := range Methods() {
		row, err := Table6Cell(context.Background(), "Tennis", m, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	bySel := map[string]ImportanceRow{}
	for _, r := range rows {
		bySel[r.Method] = r
		if r.IGAt10 < 0 || r.IGAt10 > 100 {
			t.Fatalf("share out of range: %+v", r)
		}
	}
	// AutoFeat expands far more candidates than SMARTFEAT (Table 6 shape).
	if bySel[MethodAutoFeat].Generated <= bySel[MethodSmartfeat].Generated {
		t.Fatalf("autofeat should generate more: %d vs %d",
			bySel[MethodAutoFeat].Generated, bySel[MethodSmartfeat].Generated)
	}
	if !strings.Contains(Table6String(rows), "IG@10") {
		t.Fatal("render broken")
	}
}

// TestEfficiencyRows folds efficiency rows from live method cells: one row
// per method in table order, FM traffic only on the FM-driven methods, and
// absent cells left out.
func TestEfficiencyRows(t *testing.T) {
	cfg := tinyConfig()
	results := make(map[string]MethodResult)
	for _, m := range Methods() {
		res, err := RunCell(context.Background(), "Diabetes", m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[m] = res
	}
	get := func(dataset, method string) (MethodResult, bool) {
		res, ok := results[method]
		return res, ok && dataset == "Diabetes"
	}
	rows := EfficiencyFromCells([]string{"Diabetes", "Tennis"}, get)
	if len(rows) != len(Methods()) {
		t.Fatalf("want %d rows, got %d", len(Methods()), len(rows))
	}
	for i, m := range Methods() {
		r := rows[i]
		if r.Dataset != "Diabetes" || r.Method != m {
			t.Fatalf("row %d = %s/%s, want Diabetes/%s", i, r.Dataset, r.Method, m)
		}
		fmDriven := m == MethodSmartfeat || m == MethodCAAFE
		if fmDriven != (r.FMRequests > 0) {
			t.Fatalf("%s: fm requests = %d", m, r.FMRequests)
		}
	}
	if !strings.Contains(EfficiencyString(rows), "Diabetes") {
		t.Fatal("render broken")
	}
}

func TestSmartfeatOperatorSubset(t *testing.T) {
	cfg := tinyConfig()
	d, err := datasets.Load("Tennis", cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res := RunSmartfeat(context.Background(), d, d.Frame.DropNA(), cfg, core.OperatorSet{HighOrder: true})
	// Tennis has no valid group-by keys: the high-order-only run generates
	// nothing (the Table 7 "+High-order ≈ initial" behaviour).
	if res.Selected != 0 {
		t.Fatalf("high-order-only on Tennis should add nothing, got %d", res.Selected)
	}
}
