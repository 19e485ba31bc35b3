package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"rlckit"
	"rlckit/internal/serve"
)

// render writes everything a seed decides: the prep traffic, the
// warm-up and open schedule with its bodies, and the first saturate
// requests.
func render(w *workload, seed int64) []byte {
	st := w.stream(seed)
	var b bytes.Buffer
	line := func(prefix string, r *request) {
		fmt.Fprintf(&b, "%s %s %s %s key=%d seq=%d churn=%d %s\n", prefix, r.method, r.path, r.kind, r.key, r.seq, r.churn, r.body)
	}
	for _, r := range st.prep {
		line("prep", r)
	}
	for _, it := range schedule(w, seed, st, 2*time.Second) {
		line(fmt.Sprintf("at=%d probe=%v idx=%d", it.at, it.probe, it.idx), it.req)
	}
	for range 20 {
		line("saturate", st.next())
	}
	return b.Bytes()
}

// TestStreamsAreSeeded checks that the seed alone decides the schedule
// and every body: the same seed reproduces them byte for byte, and
// seeds 1 and 2 differ.
func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := render(w, 1), render(w, 1)
			if !bytes.Equal(a, b) {
				t.Error("seed 1 gave two different schedules or bodies")
			}
			if bytes.Equal(a, render(w, 2)) {
				t.Error("seeds 1 and 2 gave the same schedule and bodies")
			}
		})
	}
}

// TestBlockKeepsShares checks the smooth round-robin claim: every prefix
// of the deal carries each slot within two requests of its share.
func TestBlockKeepsShares(t *testing.T) {
	for _, weights := range [][]int{{42, 14, 7, 7, 15, 15}, {17, 1, 2}, {6, 6, 4, 2, 2}, {40, 9, 1, 40, 9, 1, 40, 9, 1}} {
		b := newBlock(weights...)
		counts := make([]int, len(weights))
		for n := 1; n <= 5000; n++ {
			counts[b.next()]++
			for i, w := range weights {
				if dev := float64(counts[i]) - float64(n*w)/float64(b.total); math.Abs(dev) >= 2 {
					t.Fatalf("weights %v: after %d deals slot %d has %d, share %.2f", weights, n, i, counts[i], float64(n*w)/float64(b.total))
				}
			}
		}
	}
}

// TestSessionStatesTrackSessions checks the model behind the step-floor
// check on edit batches: applyEdits, replayed over a session's prep
// batches, gives the tree a real session reaches (the same closed-form
// table, to the bit), and every state it reaches stays at the floor.
func TestSessionStatesTrackSessions(t *testing.T) {
	st := sessionEditStream(1)
	for k := range 3 {
		var orig serve.TreeRequest
		if err := json.Unmarshal(st.prep[k].body, &orig); err != nil {
			t.Fatal(err)
		}
		tr, drv, err := buildTree(&orig)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := rlckit.OpenSession(tr, drv, rlckit.TreeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		state := orig
		path := fmt.Sprintf("/v1/session/s%d/edit", k+1)
		for _, r := range st.prep[sessCount:] {
			if r.path != path {
				continue
			}
			var er serve.SessionEditRequest
			if err := json.Unmarshal(r.body, &er); err != nil {
				t.Fatal(err)
			}
			if err := sess.Apply(er.Edits); err != nil {
				t.Fatal(err)
			}
			got, err := sess.Result(context.Background(), rlckit.TreeEngineClosed)
			if err != nil {
				t.Fatal(err)
			}
			state = applyEdits(state, er.Edits)
			tr, drv, err := buildTree(&state)
			if err != nil {
				t.Fatal(err)
			}
			want, err := rlckit.AnalyzeTree(tr, drv, rlckit.TreeConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Sinks {
				if got.Sinks[i].DelayClosed != want.Sinks[i].DelayClosed {
					t.Fatalf("session %d sink %d: session delay %g, tracked state %g", k, i, got.Sinks[i].DelayClosed, want.Sinks[i].DelayClosed)
				}
			}
			if steps := transientSteps(tr, drv); steps > stepFloor {
				t.Fatalf("session %d reached a state needing %.0f steps", k, steps)
			}
		}
	}
}

// TestSessionEditOrdering checks the session-edit stream's bookkeeping:
// every keyed request's seq counts its key's requests in stream order,
// and every churn close follows its open.
func TestSessionEditOrdering(t *testing.T) {
	st := sessionEditStream(1)
	seqs := make(map[int]int)
	opened := make(map[int]bool)
	for range 3000 {
		r := st.next()
		if r.key < 0 {
			continue
		}
		if r.seq != seqs[r.key] {
			t.Fatalf("key %d: seq %d, want %d", r.key, r.seq, seqs[r.key])
		}
		seqs[r.key]++
		switch r.kind {
		case "session.open":
			opened[r.churn] = true
		case "session.close":
			if !opened[r.churn] {
				t.Fatalf("churn session %d closed before it was opened", r.churn)
			}
		}
	}
}
