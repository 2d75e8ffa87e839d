package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: nearestRank must sort a copy
	}
	return out
}

func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n     int
		p     float64
		value float64
		ok    bool
	}{
		{200, 95, 190, true},  // exactly 10 samples beyond rank 190
		{199, 95, 190, false}, // only 9 beyond
		{100, 95, 95, false},
		{20, 50, 10, true},
		{19, 50, 10, false},
		{7, 100, 7, false},
		{1, 50, 1, false},
		{0, 50, 0, false},
	} {
		xs := seq(tc.n)
		before := append([]float64(nil), xs...)
		q := nearestRank(xs, tc.p)
		if q.Value != tc.value || q.OK != tc.ok || q.N != tc.n {
			t.Errorf("n=%d p%.0f: got value %v ok %v n %d, want %v %v %d", tc.n, tc.p, q.Value, q.OK, q.N, tc.value, tc.ok, tc.n)
		}
		if !slices.Equal(xs, before) {
			t.Errorf("n=%d: nearestRank reordered its input", tc.n)
		}
	}
	// The value is always one of the samples, never an interpolation.
	if q := nearestRank([]float64{1, 1000}, 50); q.Value != 1 {
		t.Errorf("p50 of {1, 1000} = %v, want 1", q.Value)
	}
}

func TestBurstScheduleIsPureFunctionOfSeed(t *testing.T) {
	p := burstParams{Bursts: 20, Size: 16, Every: time.Second, JitterMS: 100, Tenants: 4}
	a := burstSchedule(7, p, serveDatasets, "x-")
	if b := burstSchedule(7, p, serveDatasets, "x-"); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := burstSchedule(8, p, serveDatasets, "x-"); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != p.Bursts*p.Size {
		t.Fatalf("%d jobs, want %d", len(a), p.Bursts*p.Size)
	}
	names := map[string]bool{}
	for burst := 0; burst < p.Bursts; burst++ {
		perDataset := map[string]int{}
		jobs := a[burst*p.Size : (burst+1)*p.Size]
		for _, j := range jobs {
			perDataset[j.Dataset]++
			if j.Burst != burst || j.Due != jobs[0].Due {
				t.Fatalf("job %s: burst %d due %v, want burst %d due %v", j.Name, j.Burst, j.Due, burst, jobs[0].Due)
			}
			names[j.Name] = true
		}
		slot := time.Duration(burst) * p.Every
		if d := jobs[0].Due; d < slot || d > slot+time.Duration(p.JitterMS)*time.Millisecond {
			t.Fatalf("burst %d due %v outside its slot", burst, d)
		}
		for _, d := range serveDatasets {
			if perDataset[d] != p.Size/len(serveDatasets) {
				t.Fatalf("burst %d has %d %s jobs, want %d", burst, perDataset[d], d, p.Size/len(serveDatasets))
			}
		}
	}
	if len(names) != len(a) {
		t.Fatalf("%d unique names for %d jobs", len(names), len(a))
	}
	for k, j := range a {
		if want := "t" + string(rune('0'+k%p.Tenants)); j.Tenant != want {
			t.Fatalf("job %d tenant %s, want %s", k, j.Tenant, want)
		}
	}
}

func TestPermuteIsPureFunctionOfSeed(t *testing.T) {
	if !reflect.DeepEqual(permute(3, 10), permute(3, 10)) {
		t.Fatal("same seed gave different orders")
	}
	seen := map[int]bool{}
	for _, i := range permute(3, 10) {
		seen[i] = true
	}
	if len(seen) != 10 {
		t.Fatalf("permute(3, 10) is not a permutation: %v", permute(3, 10))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "grid.run", TsUS: 0, DurUS: 100},
		{ID: 2, Parent: 1, Name: "cell", TsUS: 10, DurUS: 20},
		{ID: 3, Parent: 1, Name: "cell", TsUS: 20, DurUS: 30}, // overlaps 2
		{ID: 4, Parent: 1, Name: "cell", TsUS: 90, DurUS: 30}, // runs past the parent
		{ID: 5, Parent: 2, Name: "ml.fit", TsUS: 12, DurUS: 5},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50, 2: 15, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w*time.Microsecond {
			t.Errorf("span %d self %v, want %v", id, self[id], w*time.Microsecond)
		}
	}
	layers := layerSelf(spans)
	if layers["grid"] != 50*time.Microsecond || layers["experiments+baselines"] != 75*time.Microsecond || layers["ml"] != 5*time.Microsecond {
		t.Errorf("layer self times %v", layers)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric and workload
// lists and BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
}
