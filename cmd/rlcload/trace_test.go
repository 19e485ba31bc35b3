package main

import "testing"

// TestSelfTime checks self-time aggregation: a span's self time is its
// duration minus the union of its children's intervals, clipped to it.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "leaf", Start: 15, End: 20},
		{ID: 3, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a: union [10, 60]
		{ID: 4, Parent: 0, Name: "b", Start: 90, End: 120}, // clipped to [90, 100]
		{ID: 5, Parent: -1, Name: "request", Start: 200, End: 300},
		{ID: 6, Parent: 5, Name: "a", Start: 200, End: 298},
	}
	stats, uncovered := aggregateSpans(spans, 0.95)
	want := map[string][]float64{
		"request": {100 - 60, 100 - 98},
		"a":       {30 - 5, 98},
		"leaf":    {5},
		"b":       {30, 30},
	}
	for name, selfs := range want {
		got := stats[name]
		if got == nil || len(got.selfs) != len(selfs) {
			t.Fatalf("%s: self times %v, want %v", name, got, selfs)
		}
		for i := range selfs {
			if got.selfs[i] != selfs[i] {
				t.Errorf("%s call %d: self %g, want %g", name, i, got.selfs[i], selfs[i])
			}
		}
	}
	if uncovered != 1 {
		t.Errorf("uncovered roots = %d, want 1 (the first root is 60%% covered, the second 98%%)", uncovered)
	}
}

// TestTracerNesting checks that begin/end build the parent links from
// the call nesting and that a disabled tracer records nothing.
func TestTracerNesting(t *testing.T) {
	tr := newTracer(true)
	tr.req = 7
	root := tr.begin("request")
	a := tr.begin("a")
	tr.end(tr.begin("leaf"))
	tr.end(a)
	tr.end(tr.begin("b"))
	tr.end(root)
	parents := map[string]int{"request": -1, "a": root, "leaf": a, "b": root}
	for _, s := range tr.spans {
		if s.Parent != parents[s.Name] || s.Req != 7 || s.End < s.Start {
			t.Errorf("span %+v: want parent %d, req 7", s, parents[s.Name])
		}
	}
	off := newTracer(false)
	off.end(off.begin("request"))
	if len(off.spans) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(off.spans))
	}
}
