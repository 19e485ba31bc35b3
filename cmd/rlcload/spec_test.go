package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCompareBounds checks -compare's arithmetic: a change within a
// metric's bound passes in either direction of "better", one beyond it
// fails, and each side is summarized by its median.
func TestCompareBounds(t *testing.T) {
	spec := &benchSpec{
		Workloads: []specEntry{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "capacity_rps", Unit: "req/s", Better: "higher", Bound: 0.1},
		},
	}
	res := func(p50, capacity float64) *result {
		return &result{Workloads: []*wlResult{{Name: "w", Metrics: map[string]metricValue{
			"p50_ms": {Value: p50}, "capacity_rps": {Value: capacity},
		}}}}
	}
	base := []*result{res(10, 100), res(9, 90), res(11, 120)} // medians 10 and 100
	for _, c := range []struct {
		b    []*result
		want bool
	}{
		{[]*result{res(10.9, 91)}, true},
		{[]*result{res(5, 200)}, true},
		{[]*result{res(11.5, 100)}, false},
		{[]*result{res(10, 85)}, false},
		{[]*result{{}}, false}, // no valid run of the workload
	} {
		var out bytes.Buffer
		if got := compareResults(spec, base, c.b, &out); got != c.want {
			t.Errorf("compare: %v, want %v\n%s", got, c.want, out.String())
		}
		if !c.want && !strings.Contains(out.String(), "WORSE") && !strings.Contains(out.String(), "NO VALID RUN") {
			t.Errorf("a failing comparison printed no failing row:\n%s", out.String())
		}
	}
}
