package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"smartfeat/internal/core"
	"smartfeat/internal/dataframe"
	"smartfeat/internal/datasets"
	"smartfeat/internal/fm"
	"smartfeat/internal/fmgate"
	"smartfeat/internal/obs"
)

// featurize inputs are fixed (the seed only orders the datasets), so every
// dataset's output digest is a constant kept in digestFile. Seeds and error
// rate are the smartfeat CLI's defaults. Frames longer than fzMaxRows are
// thinned to that many evenly spaced rows (Bank, Adult, Housing and West
// Nile Virus), so one round over all eight datasets is short enough to
// repeat several times in a run: wall_s is a sum of per-dataset medians
// over rounds, which a short stretch of host contention moves less than it
// moves one long round.
const (
	fzMaxRows   = 5000
	fzDataSeed  = 42
	fzSelSeed   = 42
	fzGenSeed   = 43
	fzErrorRate = 0.02
	fzCacheSize = 1 << 14
	digestFile  = "perfbench/featurize_digests.json"
)

//go:embed featurize_digests.json
var digestJSON []byte

type fzData struct {
	name  string
	d     *datasets.Dataset
	clean *dataframe.Frame
}

// featurizeResult is one dataset's run: the digest and counts of its
// result, and the time spent inside the decorators. It keeps no frame and
// no model, so the results a run holds on to do not grow its heap.
type featurizeResult struct {
	name           string
	digest         string
	counts         map[string]float64
	run            time.Duration
	gateway, model map[string]time.Duration // time inside each decorator, by role
}

type featurize struct {
	opts  options
	data  []fzData
	loadS []float64
	want  map[string]string
}

func newFeaturize(opts options) workload { return &featurize{opts: opts} }

func (f *featurize) setup(ctx context.Context, rep int) error {
	if err := json.Unmarshal(digestJSON, &f.want); err != nil {
		return fmt.Errorf("%s: %w", digestFile, err)
	}
	data, load, err := loadDatasets(ctx, datasets.Names(), fzDataSeed)
	if err != nil {
		return err
	}
	f.data = data
	f.loadS = append(f.loadS, load.Seconds())
	return nil
}

// loadDatasets generates each named dataset and its NA-dropped frame, thinned
// to at most fzMaxRows rows, one datasets.load span each.
func loadDatasets(ctx context.Context, names []string, seed int64) ([]fzData, time.Duration, error) {
	var out []fzData
	t0 := time.Now()
	for _, n := range names {
		_, sp := obs.StartSpan(ctx, "datasets.load", obs.String("op", n))
		d, err := datasets.Load(n, seed)
		sp.End()
		if err != nil {
			return nil, 0, err
		}
		out = append(out, fzData{name: n, d: d, clean: thin(d.Frame.DropNA(), fzMaxRows)})
	}
	return out, time.Since(t0), nil
}

// thin keeps n evenly spaced rows of f, or all of f when it is no longer.
func thin(f *dataframe.Frame, n int) *dataframe.Frame {
	if f.Len() <= n {
		return f
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i * f.Len() / n
	}
	return f.Take(rows)
}

// fmPair is one dataset's selector and generator: each simulator behind its
// own cached gateway, with timing decorators around both.
type fmPair struct {
	gws               []*fmgate.Gateway
	timedGW, timedSim map[string]*timedModel // by role
}

// newFMPairs builds a fresh fmPair for each of n datasets. A round builds
// all of them before it starts: fmgate.New registers every gateway's
// instruments in obs.Default, which keeps the gateway and its cache
// reachable for good, so building them as the round goes would let the
// dataset order (the seed) decide how much memory each dataset runs on top
// of.
func newFMPairs(n int) []*fmPair {
	out := make([]*fmPair, n)
	for i := range out {
		p := &fmPair{timedGW: map[string]*timedModel{}, timedSim: map[string]*timedModel{}}
		sims := map[string]fm.Model{"selector": fm.NewGPT4Sim(fzSelSeed, fzErrorRate), "generator": fm.NewGPT35Sim(fzGenSeed, fzErrorRate)}
		for _, role := range []string{"selector", "generator"} {
			p.timedSim[role] = &timedModel{Model: sims[role], span: "fm.model", role: role}
			gw := fmgate.New(p.timedSim[role], fmgate.Options{CacheSize: fzCacheSize, Role: role})
			p.gws = append(p.gws, gw)
			p.timedGW[role] = &timedModel{Model: gw, span: "fmgate.gateway", role: role}
		}
		out[i] = p
	}
	return out
}

// featurizeOne runs the library pipeline with its defaults (budget 10,
// verification, drop heuristic) on one dataset with the FMs of p.
func featurizeOne(ctx context.Context, x fzData, p *fmPair) (*featurizeResult, error) {
	r := &featurizeResult{name: x.name, gateway: map[string]time.Duration{}, model: map[string]time.Duration{}}
	timedGW, timedSim := p.timedGW, p.timedSim
	ctx, sp := obs.StartSpan(ctx, "core.run", obs.String("op", x.name))
	t0 := time.Now()
	res, err := core.RunContext(ctx, x.clean, core.Options{
		Target:            x.d.Target,
		TargetDescription: x.d.TargetDescription,
		Descriptions:      x.d.Descriptions,
		SelectorFM:        timedGW["selector"],
		GeneratorFM:       timedGW["generator"],
	})
	r.run = time.Since(t0)
	sp.End()
	for role := range timedGW {
		r.gateway[role], r.model[role] = timedGW[role].elapsed(), timedSim[role].elapsed()
	}
	if err != nil {
		return nil, fmt.Errorf("featurize %s: %w", x.name, err)
	}
	var gm fmgate.Metrics
	for _, gw := range p.gws {
		gm.Add(gw.Metrics())
	}
	su, gu := res.SelectorUsage, res.GeneratorUsage
	accepted := 0
	for _, g := range res.Features {
		if g.Status == core.StatusAdded || g.Status == core.StatusRowLevel {
			accepted++
		}
	}
	r.digest = digest(res)
	r.counts = map[string]float64{
		"fm_calls":              float64(su.Calls + gu.Calls),
		"fm_tokens":             float64(su.PromptTokens + su.CompletionTokens + gu.PromptTokens + gu.CompletionTokens),
		"fm_cost_usd":           su.SimCostUSD + gu.SimCostUSD,
		"fm.calls.selector":     float64(su.Calls),
		"fm.calls.generator":    float64(gu.Calls),
		"core.candidates":       float64(len(res.Features)),
		"core.features_added":   float64(len(res.AddedColumns())),
		"core.accepted":         float64(accepted),
		"fmgate.requests":       float64(gm.Requests),
		"fmgate.upstream_calls": float64(gm.UpstreamCalls),
		"fmgate.cache_hits":     float64(gm.CacheHits),
		"fmgate.replayed":       float64(gm.Replayed),
	}
	return r, nil
}

// run is one round: every dataset once, in the seed's order. Each dataset's
// wall and user CPU time (pipeline plus digest) is a unit of the round.
// Each dataset starts from a collected heap, so the garbage the dataset
// before it left does not move its GC timing. The freed pages stay with
// the process: returning them to the OS before every dataset tripled the
// page faults, whose cost varies with the host.
func (f *featurize) run(ctx context.Context, _ bool) (*outcome, error) {
	var results []*featurizeResult
	units := map[string]unitCost{}
	fms := newFMPairs(len(f.data))
	for _, i := range permute(f.opts.seed, len(f.data)) {
		runtime.GC()
		u0, _ := cpuTime()
		t0 := time.Now()
		r, err := featurizeOne(ctx, f.data[i], fms[i])
		if err != nil {
			return nil, err
		}
		u1, _ := cpuTime()
		units[r.name] = unitCost{wall: time.Since(t0), user: u1 - u0}
		results = append(results, r)
	}
	o := &outcome{attempted: len(results), counts: map[string]float64{}, detail: results, units: units}
	// Sum in dataset-name order: float sums must not depend on the seed.
	sort.Slice(results, func(i, j int) bool { return results[i].name < results[j].name })
	for _, r := range results {
		for k, v := range r.counts {
			o.counts[k] += v
		}
		if want := f.want[r.name]; r.digest != want {
			fmt.Fprintf(os.Stderr, "perfbench: featurize %s digest %s, want %s\n", r.name, r.digest, want)
			o.failed++
		}
	}
	o.phase = map[string]any{"datasets": len(results)}
	return o, nil
}

// digest hashes what a featurize run produced for one dataset: the output
// frame's columns with every value, the dropped originals, and the FM usage
// of both roles.
func digest(res *core.Result) string {
	h := sha256.New()
	for _, name := range res.Frame.Names() {
		hashSeries(h, res.Frame.Column(name))
	}
	for _, d := range res.DroppedOriginals {
		fmt.Fprintf(h, "drop %s\n", d)
	}
	for _, u := range []fm.Usage{res.SelectorUsage, res.GeneratorUsage} {
		fmt.Fprintf(h, "usage %d %d %d %s\n", u.Calls, u.PromptTokens, u.CompletionTokens,
			strconv.FormatFloat(u.SimCostUSD, 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashSeries(h hash.Hash, s *dataframe.Series) {
	fmt.Fprintf(h, "col %s %d %d\n", s.Name, s.Kind, s.Len())
	var buf [8]byte
	for i := 0; i < s.Len(); i++ {
		switch {
		case s.IsNull(i):
			h.Write([]byte{0})
		case s.Kind == dataframe.Numeric:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.Nums[i]))
			h.Write(buf[:])
		default:
			h.Write([]byte(s.Strs[i]))
			h.Write([]byte{0xff}) // never inside UTF-8 text: separates values
		}
	}
}

func (f *featurize) layers(_ context.Context, plain, traced *pass, spans []span, m map[string]float64) (string, error) {
	var run, gw, model time.Duration
	for _, r := range plain.detail.([]*featurizeResult) {
		run += r.run
		for role, g := range r.gateway {
			gw += g
			model += r.model[role]
			m["fm.model_s."+role] += r.model[role].Seconds()
		}
	}
	for k, v := range plain.counts {
		m[k] = v
	}
	m["core.run_s"] = run.Seconds()
	m["core.self_s"] = (run - gw).Seconds()
	m["fmgate.self_ms"] = ms(gw - model)
	m["core.accept_ratio"] = ratio(m["core.accepted"], m["core.candidates"])
	delete(m, "core.accepted")
	m["fmgate.hit_ratio"] = ratio(m["fmgate.cache_hits"], m["fmgate.requests"])
	m["datasets.load_s"] = median(f.loadS)
	return layerTable("featurize wall (traced pass)", traced.wall, layerSelf(spans)), nil
}

func (f *featurize) close() {}

// regenerateDigests runs featurize once and writes digestFile. Use it only
// when a change to the pipeline's output is intended.
func regenerateDigests(ctx context.Context) error {
	data, _, err := loadDatasets(ctx, datasets.Names(), fzDataSeed)
	if err != nil {
		return err
	}
	out := map[string]string{}
	fms := newFMPairs(len(data))
	for i, x := range data {
		r, err := featurizeOne(ctx, x, fms[i])
		if err != nil {
			return err
		}
		out[x.name] = r.digest
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestFile, append(b, '\n'), 0o644)
}
