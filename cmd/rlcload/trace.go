package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer during the traced replay. Spans
// of one request share req; parent is the enclosing span's id (-1 for a
// root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory for a serial replay. A disabled tracer
// records nothing, which gives the untraced replay the overhead is
// measured against.
type tracer struct {
	on    bool
	t0    time.Time
	req   int
	spans []span
	open  []int // stack of unfinished span ids
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if !t.on {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	// durs and selfs hold each call's duration and self time (its
	// duration minus the part its children cover), in nanoseconds.
	durs, selfs []float64
}

// aggregateSpans groups spans by name with each call's self time, and
// counts the request spans whose children cover less than minCover of
// them — time the replay spent outside any traced layer.
func aggregateSpans(spans []span, minCover float64) (map[string]*spanStats, int) {
	kids := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	stats := make(map[string]*spanStats)
	uncovered := 0
	for _, s := range spans {
		dur := float64(s.End - s.Start)
		covered := float64(coveredNanos(spans, s, kids[s.ID]))
		st := stats[s.Name]
		if st == nil {
			st = &spanStats{}
			stats[s.Name] = st
		}
		st.durs = append(st.durs, dur)
		st.selfs = append(st.selfs, dur-covered)
		if s.Name == "request" && covered < minCover*dur {
			uncovered++
		}
	}
	return stats, uncovered
}

// coveredNanos is the length of the union of the child intervals,
// clipped to the parent.
func coveredNanos(spans []span, parent span, kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}
