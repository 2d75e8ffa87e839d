package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"smartfeat/internal/fm"
	"smartfeat/internal/obs"
)

// timedModel decorates an fm.Model: every completion is timed and counted,
// and recorded as a span named span when the context carries a tracer. The
// benchmark wraps each simulator (span "fm.model") and each gateway (span
// "fmgate.gateway") in one, so gateway self time is gateway minus model
// time and core self time is run minus gateway time — measured from the
// benchmark's own code, without spans in the program. Name, Usage and
// ResetUsage pass through, so cache and replay keys are unchanged.
type timedModel struct {
	fm.Model
	span  string
	role  string
	nanos atomic.Int64
}

func (m *timedModel) Complete(ctx context.Context, prompt string) (string, error) {
	ctx, sp := obs.StartSpan(ctx, m.span, obs.String("role", m.role))
	start := time.Now()
	text, err := m.Model.Complete(ctx, prompt)
	m.nanos.Add(int64(time.Since(start)))
	sp.End()
	return text, err
}

func (m *timedModel) elapsed() time.Duration { return time.Duration(m.nanos.Load()) }

// span is one parsed line of an obs trace.jsonl.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	TsUS   int64  `json:"ts_us"`
	DurUS  int64  `json:"dur_us"`
}

// parseTrace reads an obs trace: a header line, then one span per line.
func parseTrace(data []byte) ([]span, error) {
	var spans []span
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 0; sc.Scan(); line++ {
		if line == 0 {
			continue // header
		}
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line+1, err)
		}
		spans = append(spans, s)
	}
	return spans, sc.Err()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children count
// once).
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		lo, hi := s.TsUS, s.TsUS+s.DurUS
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].TsUS < kids[j].TsUS })
		var covered, end int64 = 0, lo
		for _, k := range kids {
			a, b := max(k.TsUS, end), min(k.TsUS+k.DurUS, hi)
			if b > a {
				covered += b - a
				end = b
			}
		}
		self[s.ID] = time.Duration(s.DurUS-covered) * time.Microsecond
	}
	return self
}

// layerOf maps a span name to the module that does the work inside it. The
// benchmark's own spans are named after the call they wrap; the others are
// the program's existing spans.
func layerOf(name string) string {
	switch name {
	case "grid.run":
		return "grid"
	case "cell":
		return "experiments+baselines"
	case "caafe.iter":
		return "baselines/caafe"
	case "ml.fit":
		return "ml"
	case "core.run":
		return "core"
	case "fmgate.gateway", "fm.call", "fm.attempt":
		return "fmgate"
	case "fm.model":
		return "fm"
	case "datasets.load":
		return "datasets"
	}
	return "other:" + name
}

// layerSelf sums span self times per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}

// layerTable renders "where the time went": each layer's self time and its
// share of total, then the unattributed remainder, largest first.
func layerTable(title string, total time.Duration, rows map[string]time.Duration) string {
	type row struct {
		name string
		d    time.Duration
	}
	var rs []row
	var sum time.Duration
	for k, v := range rows {
		rs = append(rs, row{k, v})
		sum += v
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].d != rs[j].d {
			return rs[i].d > rs[j].d
		}
		return rs[i].name < rs[j].name
	})
	rs = append(rs, row{"(unattributed)", total - sum})
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %.3f s\n%-36s %10s %8s\n", title, total.Seconds(), "layer", "self_s", "share")
	for _, r := range rs {
		share := 0.0
		if total > 0 {
			share = float64(r.d) / float64(total)
		}
		fmt.Fprintf(&b, "%-36s %10.3f %7.1f%%\n", r.name, r.d.Seconds(), 100*share)
	}
	return b.String()
}
