package main

import (
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark's own code
// around a call it makes. Parent is an index into the same slice (-1
// for a root); the spans of one action share Action.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Action int32  `json:"action"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. A nil tracer records nothing, so the measured run passes nil
// and pays one comparison per call site.
type tracer struct {
	t0     time.Time
	action int32 // stamped on every span begun
	spans  []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Action: t.action})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its child spans cover
// (children are clipped to the parent and overlapping children are
// counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// spanCost measures what recording one begin/end pair costs, so the
// traced run can report its own overhead without a second bed.
func spanCost() time.Duration {
	const n = 200000
	t := newTracer(n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", -1))
	}
	return time.Since(t0) / n
}
