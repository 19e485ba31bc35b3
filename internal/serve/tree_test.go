package serve

import (
	"encoding/json"
	"math"
	"testing"

	"rlckit/internal/golden"
)

// treeBody is a small asymmetric two-sink tree used across the tree
// endpoint tests.
const treeBody = `{
  "tree": {
    "root_c": 5e-15,
    "branches": [
      {"parent": 0, "r": 20, "l": 5e-10, "c": 4e-14},
      {"parent": 1, "r": 15, "l": 4e-10, "c": 3e-14},
      {"parent": 1, "r": 40, "l": 1e-9, "c": 6e-14},
      {"parent": 3, "r": 40, "l": 1e-9, "c": 6e-14}
    ],
    "sinks": [{"node": 2, "cl": 2e-14}, {"node": 4, "cl": 3.5e-14}]
  },
  "drive": {"rtr": 80}
}`

func treeBodyWithEngine(engine string) string {
	var req map[string]any
	if err := json.Unmarshal([]byte(treeBody), &req); err != nil {
		panic(err)
	}
	req["engine"] = engine
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestGoldenTree locks the exact response bytes of /v1/tree per
// engine. Refresh with `go test ./internal/serve -update`.
func TestGoldenTree(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct{ name, body string }{
		{"tree_closed.json", treeBody},
		{"tree_mna.json", treeBodyWithEngine("mna")},
		{"tree_reduced.json", treeBodyWithEngine("reduced")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := post(s.Handler(), "/v1/tree", c.body)
			if rec.Code != 200 {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			golden.Assert(t, c.name, rec.Body.Bytes())
		})
	}
}

// TestTreeCacheHitEquivalence: a repeated request must hit the cache
// and return byte-identical body, and a reformatted (but physically
// identical) body must share the same cache entry.
func TestTreeCacheHitEquivalence(t *testing.T) {
	s := newTestServer(t, Config{})
	first := post(s.Handler(), "/v1/tree", treeBody)
	if first.Code != 200 || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first: code %d cache %q", first.Code, first.Header().Get("X-Cache"))
	}
	second := post(s.Handler(), "/v1/tree", treeBody)
	if second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second request missed the cache")
	}
	if second.Body.String() != first.Body.String() {
		t.Fatal("cache hit returned different bytes")
	}
	// Same physics, different JSON formatting: whitespace collapsed via
	// decode/encode round trip.
	var req map[string]any
	if err := json.Unmarshal([]byte(treeBody), &req); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	third := post(s.Handler(), "/v1/tree", string(compact))
	if third.Header().Get("X-Cache") != "hit" {
		t.Fatal("reformatted request missed the cache")
	}
	if third.Body.String() != first.Body.String() {
		t.Fatal("reformatted request returned different bytes")
	}
}

// TestTreeWorkerInvariance: tree responses must be byte-identical at
// every worker count.
func TestTreeWorkerInvariance(t *testing.T) {
	var ref string
	for _, workers := range []int{1, 2, 8} {
		s := newTestServer(t, Config{Workers: workers, CacheEntries: -1})
		rec := post(s.Handler(), "/v1/tree", treeBodyWithEngine("mna"))
		if rec.Code != 200 {
			t.Fatalf("workers=%d: status %d: %s", workers, rec.Code, rec.Body)
		}
		if ref == "" {
			ref = rec.Body.String()
		} else if rec.Body.String() != ref {
			t.Fatalf("workers=%d: response differs", workers)
		}
	}
}

// TestTreeReducedConsistency: the reduced engine's response must agree
// with the MNA engine's per-sink delays within 1% (or report an
// explicit fallback).
func TestTreeReducedConsistency(t *testing.T) {
	s := newTestServer(t, Config{CacheEntries: -1})
	var mna, red TreeResponse
	rec := post(s.Handler(), "/v1/tree", treeBodyWithEngine("mna"))
	if err := json.Unmarshal(rec.Body.Bytes(), &mna); err != nil {
		t.Fatal(err)
	}
	rec = post(s.Handler(), "/v1/tree", treeBodyWithEngine("reduced"))
	if err := json.Unmarshal(rec.Body.Bytes(), &red); err != nil {
		t.Fatal(err)
	}
	if red.MORFallback {
		t.Skip("reduction fell back (still a valid response)")
	}
	if red.MORQ <= 0 || red.MORN <= red.MORQ {
		t.Errorf("implausible MOR metadata: q=%d n=%d", red.MORQ, red.MORN)
	}
	for i := range mna.Sinks {
		m, r := mna.Sinks[i].DelayS, red.Sinks[i].DelayS
		if rel := (m - r) / m; rel > 0.01 || rel < -0.01 {
			t.Errorf("sink %d: reduced %g vs mna %g", mna.Sinks[i].Node, r, m)
		}
	}
}

func TestTreeRequestErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct{ name, body string }{
		{"no sinks", `{"tree":{"branches":[{"parent":0,"r":1,"l":0,"c":1e-15}],"sinks":[]},"drive":{"rtr":50}}`},
		{"bad parent", `{"tree":{"branches":[{"parent":7,"r":1,"l":0,"c":1e-15}],"sinks":[{"node":1,"cl":0}]},"drive":{"rtr":50}}`},
		{"negative r", `{"tree":{"branches":[{"parent":0,"r":-1,"l":0,"c":1e-15}],"sinks":[{"node":1,"cl":0}]},"drive":{"rtr":50}}`},
		{"zero impedance", `{"tree":{"branches":[{"parent":0,"r":0,"l":0,"c":1e-15}],"sinks":[{"node":1,"cl":0}]},"drive":{"rtr":50}}`},
		{"bad engine", `{"tree":{"branches":[{"parent":0,"r":1,"l":0,"c":1e-15}],"sinks":[{"node":1,"cl":0}]},"drive":{"rtr":50},"engine":"warp"}`},
		{"negative rtr", `{"tree":{"branches":[{"parent":0,"r":1,"l":0,"c":1e-15}],"sinks":[{"node":1,"cl":0}]},"drive":{"rtr":-5}}`},
		{"unknown field", `{"tree":{"branches":[{"parent":0,"r":1,"l":0,"c":1e-15}],"sinks":[{"node":1,"cl":0}]},"drive":{"rtr":50},"bogus":1}`},
		// Decodes fine (finite, non-negative) but the moment products
		// overflow: must be a 400 rejection, never a 500 from an Inf
		// reaching json.Marshal.
		{"overflowing values", `{"tree":{"branches":[{"parent":0,"r":1e308,"l":0,"c":1e308}],"sinks":[{"node":1,"cl":0}]},"drive":{"rtr":1},"engine":"closed"}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := post(s.Handler(), "/v1/tree", c.body)
			if rec.Code != 400 {
				t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
			}
		})
	}
}

// TestCanonicalTreeKeyExactBits: the binary tree key separates trees
// that differ in one float's last bit or in the sign of a zero, or in a
// node index, and every variant survives the snapshot key codec.
func TestCanonicalTreeKeyExactBits(t *testing.T) {
	var base TreeRequest
	if err := json.Unmarshal([]byte(treeBody), &base); err != nil {
		t.Fatal(err)
	}
	variant := func(edit func(r *TreeRequest)) TreeRequest {
		r := base
		r.Tree.Branches = append([]TreeBranchSpec(nil), base.Tree.Branches...)
		r.Tree.Sinks = append([]TreeSinkSpec(nil), base.Tree.Sinks...)
		edit(&r)
		return r
	}
	reqs := []TreeRequest{
		base,
		variant(func(r *TreeRequest) { r.Tree.Branches[2].L = math.Nextafter(r.Tree.Branches[2].L, 1) }),
		variant(func(r *TreeRequest) { r.Tree.Sinks[1].CL = math.Nextafter(r.Tree.Sinks[1].CL, 0) }),
		variant(func(r *TreeRequest) { r.Tree.RootC = 0 }),
		variant(func(r *TreeRequest) { r.Tree.RootC = math.Copysign(0, -1) }),
		variant(func(r *TreeRequest) { r.Tree.Branches[3].Parent = 2 }),
		variant(func(r *TreeRequest) { r.Tree.Sinks = r.Tree.Sinks[:1] }),
	}
	seen := map[string]int{}
	for i := range reqs {
		key := canonicalTree(&reqs[i])
		if j, dup := seen[key]; dup {
			t.Errorf("requests %d and %d share a tree key", j, i)
		}
		seen[key] = i
		if again := canonicalTree(&reqs[i]); again != key {
			t.Errorf("request %d: key not deterministic", i)
		}
		ck := cacheKey{kind: kindTree, tree: key}
		if got, ok := decodeCacheKey(encodeCacheKey(&ck)); !ok || got != ck {
			t.Errorf("request %d: tree key did not survive the snapshot codec", i)
		}
	}
}
