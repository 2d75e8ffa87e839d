package fmgate

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"weak"

	"smartfeat/internal/obs"
)

// collected reports whether the weakly held object is gone after a few full
// GC cycles.
func collected[T any](p weak.Pointer[T]) bool {
	for i := 0; i < 3 && p.Value() != nil; i++ {
		runtime.GC()
	}
	return p.Value() == nil
}

// TestDroppedGatewayIsCollected pins that registering a gateway's
// instruments in the process-wide registry does not keep the gateway — and
// with it the wrapped model and a 1<<14-entry LRU — alive once its owner
// drops it, while the registry keeps summing the counters it contributed.
func TestDroppedGatewayIsCollected(t *testing.T) {
	const role = "collect-test"
	before := obs.Default.Total("fm_requests_total", "role", role)
	g := New(&countingModel{}, Options{CacheSize: 1 << 14, Role: role})
	for i := 0; i < 3; i++ {
		if _, err := g.Complete(context.Background(), fmt.Sprintf("prompt %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	wg := weak.Make(g)
	g = nil
	if !collected(wg) {
		t.Fatal("a dropped gateway stays reachable through the metrics registry")
	}
	if got := obs.Default.Total("fm_requests_total", "role", role) - before; got != 3 {
		t.Fatalf("registry total grew by %v after collection, want 3", got)
	}
}

// TestDroppedPoolIsCollected is the same check for a backend pool, whose
// per-pool and per-backend counters are registered alike.
func TestDroppedPoolIsCollected(t *testing.T) {
	before := obs.Default.Total("fmpool_calls_total")
	picksBefore := obs.Default.Total("fmpool_backend_picks_total", "backend", "collect-b1")
	p, err := NewPool(&countingModel{}, []Backend{{Name: "collect-b1"}}, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Complete(context.Background(), "prompt"); err != nil {
		t.Fatal(err)
	}
	wp := weak.Make(p)
	p = nil
	if !collected(wp) {
		t.Fatal("a dropped pool stays reachable through the metrics registry")
	}
	if got := obs.Default.Total("fmpool_calls_total") - before; got != 1 {
		t.Fatalf("registry total grew by %v after collection, want 1", got)
	}
	if got := obs.Default.Total("fmpool_backend_picks_total", "backend", "collect-b1") - picksBefore; got != 1 {
		t.Fatalf("backend picks grew by %v after collection, want 1", got)
	}
}

// TestClosedDiskCacheIsCollected is the same check for the disk tier, which
// a serving daemon opens once per job.
func TestClosedDiskCacheIsCollected(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir(), DiskCacheOptions{ConfigHash: "hash-collect"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wd := weak.Make(d)
	d = nil
	if !collected(wd) {
		t.Fatal("a closed disk cache stays reachable through the metrics registry")
	}
}
