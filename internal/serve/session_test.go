package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// This file tests the what-if session endpoints. The load-bearing
// contract: a session edit's embedded result is byte-identical to a
// cold POST /v1/tree of the edited net — sessions bypass the response
// cache and the compute slots without forking the response encoding.

// do drives one request of any method through the handler chain.
func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// sessionEditBatch is the edit script shared by the byte-identity
// tests, and editedTreeBody the cold /v1/tree request describing the
// same net after those edits (same float literals, so the decoded
// values are bit-identical).
const sessionEditBatch = `{"edits":[
  {"op":"branch","node":2,"r":18,"l":3.5e-10},
  {"op":"load","node":4,"cl":4e-14},
  {"op":"driver","rtr":70}
]}`

func editedTreeBody(engine string) string {
	body := `{
  "tree": {
    "root_c": 5e-15,
    "branches": [
      {"parent": 0, "r": 20, "l": 5e-10, "c": 4e-14},
      {"parent": 1, "r": 18, "l": 3.5e-10, "c": 3e-14},
      {"parent": 1, "r": 40, "l": 1e-9, "c": 6e-14},
      {"parent": 3, "r": 40, "l": 1e-9, "c": 6e-14}
    ],
    "sinks": [{"node": 2, "cl": 2e-14}, {"node": 4, "cl": 4e-14}]
  },
  "drive": {"rtr": 70}`
	if engine != "" {
		body += fmt.Sprintf(`, "engine": %q`, engine)
	}
	return body + "}"
}

func openSession(t *testing.T, s *Server, body string) SessionOpenResponse {
	t.Helper()
	rec := do(s.Handler(), "POST", "/v1/session", body)
	if rec.Code != 200 {
		t.Fatalf("open: status %d: %s", rec.Code, rec.Body)
	}
	var resp SessionOpenResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("open: %v", err)
	}
	return resp
}

func editSession(t *testing.T, s *Server, id, body string) SessionEditResponse {
	t.Helper()
	rec := do(s.Handler(), "POST", "/v1/session/"+id+"/edit", body)
	if rec.Code != 200 {
		t.Fatalf("edit %s: status %d: %s", id, rec.Code, rec.Body)
	}
	var resp SessionEditResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("edit %s: %v", id, err)
	}
	return resp
}

// coldTreeBytes posts body to /v1/tree on a fresh server and returns
// the response bytes without the trailing newline — the embedded
// session result shape.
func coldTreeBytes(t *testing.T, body string) string {
	t.Helper()
	s := newTestServer(t, Config{CacheEntries: -1})
	rec := post(s.Handler(), "/v1/tree", body)
	if rec.Code != 200 {
		t.Fatalf("cold tree: status %d: %s", rec.Code, rec.Body)
	}
	return strings.TrimSuffix(rec.Body.String(), "\n")
}

// TestSessionEditMatchesColdTree: for the closed and MNA engines, the
// session's initial result must be byte-identical to a cold /v1/tree
// of the opened net, and the post-edit result byte-identical to a cold
// /v1/tree of the edited net.
func TestSessionEditMatchesColdTree(t *testing.T) {
	for _, engine := range []string{"closed", "mna"} {
		t.Run(engine, func(t *testing.T) {
			s := newTestServer(t, Config{})
			open := openSession(t, s, treeBodyWithEngine(engine))
			if open.Nodes != 5 || open.Gen != 0 {
				t.Fatalf("open: nodes=%d gen=%d", open.Nodes, open.Gen)
			}
			if want := coldTreeBytes(t, treeBodyWithEngine(engine)); string(open.Result) != want {
				t.Errorf("open result differs from cold /v1/tree:\nsession: %s\ncold:    %s", open.Result, want)
			}
			edit := editSession(t, s, open.SessionID, sessionEditBatch)
			if edit.Gen != 1 {
				t.Errorf("edit gen = %d, want 1", edit.Gen)
			}
			if want := coldTreeBytes(t, editedTreeBody(engine)); string(edit.Result) != want {
				t.Errorf("edited result differs from cold /v1/tree of the edited net:\nsession: %s\ncold:    %s", edit.Result, want)
			}
		})
	}
}

// TestSessionReducedEditConsistent: a session answers engine "reduced"
// with its frozen exact engine, so the open and edited results are
// byte-identical to a cold /v1/tree mna of the same net but for the
// mor_fallback flag that says so.
func TestSessionReducedEditConsistent(t *testing.T) {
	s := newTestServer(t, Config{})
	open := openSession(t, s, treeBodyWithEngine("reduced"))
	edit := editSession(t, s, open.SessionID, sessionEditBatch)
	for _, tc := range []struct {
		tag  string
		got  []byte
		cold string
	}{
		{"open", open.Result, treeBodyWithEngine("mna")},
		{"edit", edit.Result, editedTreeBody("mna")},
	} {
		var got TreeResponse
		if err := json.Unmarshal(tc.got, &got); err != nil {
			t.Fatal(err)
		}
		if !got.MORFallback || got.Engine != "mna" || got.MORQ != 0 {
			t.Errorf("%s: reduced read not flagged as answered exactly: %s", tc.tag, tc.got)
		}
		got.MORFallback = false
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if want := coldTreeBytes(t, tc.cold); string(b) != want {
			t.Errorf("%s: reduced read differs from cold MNA beyond the fallback flag:\nsession: %s\ncold:    %s", tc.tag, tc.got, want)
		}
	}
}

// TestSessionReplayDeterminism: the same open + edit script must
// produce byte-identical responses at every worker count.
func TestSessionReplayDeterminism(t *testing.T) {
	edits := []string{
		`{"edits":[{"op":"branch","node":1,"r":22,"l":4.5e-10}]}`,
		`{"edits":[{"op":"load","node":2,"cl":2.5e-14},{"op":"driver","rtr":90}]}`,
		sessionEditBatch,
	}
	var ref []string
	for _, workers := range []int{1, 2, 8} {
		s := newTestServer(t, Config{Workers: workers})
		open := openSession(t, s, treeBodyWithEngine("mna"))
		got := []string{string(open.Result)}
		for _, e := range edits {
			got = append(got, string(editSession(t, s, open.SessionID, e).Result))
		}
		if ref == nil {
			ref = got
		} else {
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("workers=%d: response %d differs", workers, i)
				}
			}
		}
	}
}

// TestSessionLifecycle: IDs are a deterministic counter, deletes work
// and are not counted as evictions, unknown IDs 404.
func TestSessionLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	a := openSession(t, s, treeBody)
	b := openSession(t, s, treeBody)
	if a.SessionID != "s1" || b.SessionID != "s2" {
		t.Fatalf("session IDs %q, %q, want s1, s2", a.SessionID, b.SessionID)
	}
	editSession(t, s, a.SessionID, sessionEditBatch)
	st := s.Stats()
	if st.SessionsOpen != 2 || st.SessionsOpened != 2 || st.SessionEdits != 3 {
		t.Errorf("stats open=%d opened=%d edits=%d, want 2, 2, 3", st.SessionsOpen, st.SessionsOpened, st.SessionEdits)
	}
	if rec := do(s.Handler(), "DELETE", "/v1/session/"+a.SessionID, ""); rec.Code != 200 {
		t.Fatalf("delete: status %d: %s", rec.Code, rec.Body)
	}
	if rec := do(s.Handler(), "POST", "/v1/session/"+a.SessionID+"/edit", sessionEditBatch); rec.Code != 404 {
		t.Errorf("edit after delete: status %d, want 404", rec.Code)
	}
	if rec := do(s.Handler(), "DELETE", "/v1/session/"+a.SessionID, ""); rec.Code != 404 {
		t.Errorf("double delete: status %d, want 404", rec.Code)
	}
	if rec := do(s.Handler(), "POST", "/v1/session/nope/edit", sessionEditBatch); rec.Code != 404 {
		t.Errorf("unknown id: status %d, want 404", rec.Code)
	}
	st = s.Stats()
	if st.SessionsOpen != 1 {
		t.Errorf("SessionsOpen after delete = %d, want 1", st.SessionsOpen)
	}
	if st.SessionsEvicted != 0 {
		t.Errorf("explicit delete counted as eviction (SessionsEvicted = %d)", st.SessionsEvicted)
	}
}

// TestSessionTTLEviction: idle sessions expire after SessionTTL and
// count as evictions.
func TestSessionTTLEviction(t *testing.T) {
	s := newTestServer(t, Config{SessionTTL: 30 * time.Millisecond})
	open := openSession(t, s, treeBody)
	time.Sleep(80 * time.Millisecond)
	if rec := do(s.Handler(), "POST", "/v1/session/"+open.SessionID+"/edit", sessionEditBatch); rec.Code != 404 {
		t.Fatalf("edit on expired session: status %d, want 404: %s", rec.Code, rec.Body)
	}
	st := s.Stats()
	if st.SessionsOpen != 0 || st.SessionsEvicted != 1 {
		t.Errorf("stats open=%d evicted=%d, want 0, 1", st.SessionsOpen, st.SessionsEvicted)
	}
}

// TestSessionCapacityEviction: opening past MaxSessions evicts the
// least-recently-used session.
func TestSessionCapacityEviction(t *testing.T) {
	s := newTestServer(t, Config{MaxSessions: 2})
	a := openSession(t, s, treeBody)
	b := openSession(t, s, treeBody)
	// Touch a so b is the LRU.
	editSession(t, s, a.SessionID, sessionEditBatch)
	c := openSession(t, s, treeBody)
	if rec := do(s.Handler(), "POST", "/v1/session/"+b.SessionID+"/edit", sessionEditBatch); rec.Code != 404 {
		t.Errorf("LRU session %s survived capacity eviction (status %d)", b.SessionID, rec.Code)
	}
	for _, id := range []string{a.SessionID, c.SessionID} {
		if rec := do(s.Handler(), "POST", "/v1/session/"+id+"/edit", sessionEditBatch); rec.Code != 200 {
			t.Errorf("session %s: status %d: %s", id, rec.Code, rec.Body)
		}
	}
	st := s.Stats()
	if st.SessionsOpen != 2 || st.SessionsEvicted != 1 {
		t.Errorf("stats open=%d evicted=%d, want 2, 1", st.SessionsOpen, st.SessionsEvicted)
	}
}

// TestSessionEditAtomic: a batch with an invalid edit is rolled back
// completely — the next good edit behaves as if the poison batch never
// happened.
func TestSessionEditAtomic(t *testing.T) {
	s := newTestServer(t, Config{})
	open := openSession(t, s, treeBody)
	poison := `{"edits":[{"op":"driver","rtr":70},{"op":"branch","node":99,"r":1,"l":0}]}`
	rec := do(s.Handler(), "POST", "/v1/session/"+open.SessionID+"/edit", poison)
	if rec.Code != 400 {
		t.Fatalf("poison batch: status %d, want 400: %s", rec.Code, rec.Body)
	}
	edit := editSession(t, s, open.SessionID, sessionEditBatch)
	if edit.Gen != 1 {
		t.Errorf("gen after rolled-back batch = %d, want 1", edit.Gen)
	}
	if want := coldTreeBytes(t, editedTreeBody("")); string(edit.Result) != want {
		t.Errorf("result after rollback differs from cold /v1/tree (poison batch left residue):\nsession: %s\ncold:    %s", edit.Result, want)
	}
}

func TestSessionRequestErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	open := openSession(t, s, treeBody)
	editPath := "/v1/session/" + open.SessionID + "/edit"
	cases := []struct{ name, path, body string }{
		{"bad open body", "/v1/session", `{"tree":{"branches":[],"sinks":[]},"drive":{"rtr":50}}`},
		{"bad edit op", editPath, `{"edits":[{"op":"teleport","node":1}]}`},
		{"bad edit engine", editPath, `{"edits":[{"op":"driver","rtr":70}],"engine":"warp"}`},
		{"unknown field", editPath, `{"edits":[],"bogus":1}`},
		{"negative r", editPath, `{"edits":[{"op":"branch","node":1,"r":-1,"l":1e-10}]}`},
		{"load on non-sink", editPath, `{"edits":[{"op":"load","node":1,"cl":1e-15}]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if rec := do(s.Handler(), "POST", c.path, c.body); rec.Code != 400 {
				t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
			}
		})
	}
	// Oversized batch.
	var b strings.Builder
	b.WriteString(`{"edits":[`)
	for i := 0; i <= maxSessionEdits; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"op":"driver","rtr":70}`)
	}
	b.WriteString(`]}`)
	if rec := do(s.Handler(), "POST", editPath, b.String()); rec.Code != 400 {
		t.Errorf("oversized batch: status %d, want 400", rec.Code)
	}
	// The session survives all of the above.
	editSession(t, s, open.SessionID, sessionEditBatch)
}

// TestSessionCancel: a canceled request context is a 503 with
// cancellation metadata, and the session remains usable.
func TestSessionCancel(t *testing.T) {
	s := newTestServer(t, Config{})
	open := openSession(t, s, treeBodyWithEngine("mna"))
	ctx, stop := context.WithCancel(context.Background())
	stop()
	rec := postCtx(ctx, s.Handler(), "/v1/session/"+open.SessionID+"/edit", sessionEditBatch)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"reason":"canceled"`) {
		t.Errorf("503 body missing canceled reason: %s", rec.Body)
	}
	// Note the edits were applied before the canceled read — the retry
	// convention is an empty batch.
	retry := editSession(t, s, open.SessionID, `{"edits":[]}`)
	if want := coldTreeBytes(t, editedTreeBody("mna")); string(retry.Result) != want {
		t.Errorf("post-cancel result differs from cold /v1/tree")
	}
}

// TestSessionDegradesUnderDeadline: a session read under a deadline too
// tight for the requested engine degrades to a cheaper one, exactly
// like /v1/tree.
func TestSessionDegradesUnderDeadline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, RequestTimeout: 40 * time.Millisecond})
	open := openSession(t, s, tree2047Body("mna"))
	var res TreeResponse
	if err := json.Unmarshal(open.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Engine == "mna" {
		t.Fatalf("open result not degraded off the MNA engine: degraded=%v engine=%q", res.Degraded, res.Engine)
	}
	edit := editSession(t, s, open.SessionID, `{"edits":[{"op":"driver","rtr":45}]}`)
	if err := json.Unmarshal(edit.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Engine == "mna" {
		t.Errorf("edit result not degraded off the MNA engine: degraded=%v engine=%q", res.Degraded, res.Engine)
	}
}

// TestSessionBypassesCache: session traffic must never populate or
// read the response cache.
func TestSessionBypassesCache(t *testing.T) {
	s := newTestServer(t, Config{})
	open := openSession(t, s, treeBody)
	editSession(t, s, open.SessionID, sessionEditBatch)
	if st := s.Stats(); st.Cache.Hits != 0 || st.Cache.Len != 0 {
		t.Errorf("session traffic touched the response cache: hits=%d entries=%d", st.Cache.Hits, st.Cache.Len)
	}
	// A cold /v1/tree of the same net still misses (sessions stored
	// nothing under the tree key).
	if rec := post(s.Handler(), "/v1/tree", treeBody); rec.Header().Get("X-Cache") != "miss" {
		t.Error("session open pre-populated the /v1/tree cache")
	}
}

// TestSessionsClosedOnServerClose: Close evicts nothing but closes
// every live session; subsequent edits answer 503 shutdown (admission
// is closed before the registry is consulted).
func TestSessionsClosedOnServerClose(t *testing.T) {
	s, _ := New(Config{})
	open := openSession(t, s, treeBody)
	s.Close()
	rec := do(s.Handler(), "POST", "/v1/session/"+open.SessionID+"/edit", sessionEditBatch)
	if rec.Code != http.StatusServiceUnavailable && rec.Code != http.StatusNotFound {
		t.Fatalf("edit after Close: status %d, want 503 or 404: %s", rec.Code, rec.Body)
	}
	if n := s.sessionCount(); n != 0 {
		t.Errorf("sessionCount after Close = %d, want 0", n)
	}
}
