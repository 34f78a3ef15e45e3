package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(ds, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(ds[:3], 0.5); got != 2 {
		t.Errorf("median of 1,2,3 = %d, want 2", got)
	}
	if got := percentile(nil, 0.95); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrShare(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want %v", got, want)
	}
	// Python: statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	if got, want := iqrShare([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(1,2,4,8,16) = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{7}); got != 0 {
		t.Errorf("iqrShare of one run = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "action", Start: 0, End: 100, Parent: -1},
		{Name: "stmt", Start: 10, End: 40, Parent: 0},
		{Name: "stmt", Start: 30, End: 60, Parent: 0},  // overlaps its sibling: 10..60 covered once
		{Name: "stmt", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"action": 100 - 50 - 10,      // 10..60 and 90..100 are covered
		"stmt":   (30 - 8) + 30 + 30, // the first stmt loses its leaf
		"leaf":   8,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", -1)) // must not panic
	rec := newTracer(4)
	rec.action = 7
	id := rec.begin("action", -1)
	kid := rec.begin("stmt", id)
	rec.end(kid)
	rec.end(id)
	if len(rec.spans) != 2 || rec.spans[1].Parent != id || rec.spans[1].Action != 7 {
		t.Fatalf("spans = %+v", rec.spans)
	}
	if rec.spans[0].End < rec.spans[1].End || rec.spans[1].Start < rec.spans[0].Start {
		t.Errorf("child not inside parent: %+v", rec.spans)
	}
}

func TestVerdict(t *testing.T) {
	lower := gate{Name: "action_p50_ms", Better: "lower", Bound: 0.10}
	higher := gate{Name: "actions_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		g    gate
		want string
	}{
		{"same", steady, steady, lower, "ok"},
		{"latency up 20 %", steady, []float64{120, 121, 119, 120, 120}, lower, "regressed"},
		{"latency down 20 %", steady, []float64{80, 81, 79, 80, 80}, lower, "ok"},
		{"throughput down 20 %", steady, []float64{80, 81, 79, 80, 80}, higher, "regressed"},
		{"throughput up 20 %", steady, []float64{120, 121, 119, 120, 120}, higher, "ok"},
		{"noisy", steady, []float64{60, 140, 100, 75, 125}, lower, "unresolved"},
	} {
		if _, got := verdict(c.a, c.b, c.g); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
