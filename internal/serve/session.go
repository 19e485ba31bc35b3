package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"rlckit"
	"rlckit/internal/faultinject"
	"rlckit/internal/session"
)

// This file is the what-if session surface: open a tree once, stream
// value edits, read updated per-sink delays after each.
//
//	POST   /v1/session            → open; returns session_id + initial result
//	POST   /v1/session/{id}/edit  → apply an edit batch, return the new result
//	DELETE /v1/session/{id}       → close
//
// Sessions are stateful, so they sit outside the two single-shot
// serving mechanisms: the response cache (an edited net's identity is
// the whole edit history — the embedded results instead stay
// byte-identical to a cold /v1/tree of the edited net, by sharing
// treeResponse) and the compute slots (a session edit is already
// sublinear and serialized by the session's own lock, so it computes
// inline under the admission limit alone). Admission control and the
// compute context (client disconnect, request timeout, server close)
// apply as everywhere else, and deadline-aware degradation picks the
// result engine with the same degradeTree arithmetic as /v1/tree —
// conservative for a session, since an edit re-analysis skips the
// ordering work of the cold analysis the estimates were calibrated on.
// A session answers engine "reduced" with its frozen exact engine
// (mor_fallback:true), so that result carries cold MNA's delays bit
// for bit.
//
// Idle sessions are evicted after Config.SessionTTL, and the registry
// is bounded by Config.MaxSessions (opening past it evicts the
// least-recently-used session). Session IDs are a process-local
// counter: deterministic for a serial open sequence at any worker
// count.

// SessionOpenResponse answers POST /v1/session.
type SessionOpenResponse struct {
	SessionID string `json:"session_id"`
	Nodes     int    `json:"nodes"`
	// Gen is the session's edit generation (0 at open; one per applied
	// edit batch).
	Gen uint64 `json:"gen"`
	// Result is the initial analysis, in exactly the /v1/tree response
	// shape.
	Result json.RawMessage `json:"result"`
}

// SessionEditRequest is one edit batch. The batch is atomic: on an
// invalid edit nothing is applied. Engine optionally overrides the
// session's default result engine for this read.
type SessionEditRequest struct {
	Edits  []rlckit.SessionEdit `json:"edits"`
	Engine string               `json:"engine,omitempty"`
}

// SessionEditResponse answers POST /v1/session/{id}/edit.
type SessionEditResponse struct {
	SessionID string          `json:"session_id"`
	Gen       uint64          `json:"gen"`
	Result    json.RawMessage `json:"result"`
}

// SessionCloseResponse answers DELETE /v1/session/{id}.
type SessionCloseResponse struct {
	SessionID string `json:"session_id"`
	Closed    bool   `json:"closed"`
}

// maxSessionEdits bounds one edit batch.
const maxSessionEdits = 4096

// liveSession is one registry entry. seq is the numeric part of the
// session ID (compaction orders the rewritten journal by it) and body
// the original open request bytes — the journal's replay recipe is
// "re-parse body, re-apply History()".
type liveSession struct {
	sess   *rlckit.Session
	nodes  int
	engine rlckit.TreeEngine // default result engine, from the open request
	seq    uint64
	body   json.RawMessage
	last   time.Time
}

func (s *Server) sessionTTL() time.Duration {
	if s.cfg.SessionTTL == 0 {
		return DefaultSessionTTL
	}
	return s.cfg.SessionTTL
}

func (s *Server) maxSessions() int {
	if s.cfg.MaxSessions <= 0 {
		return DefaultMaxSessions
	}
	return s.cfg.MaxSessions
}

// sweepSessionsLocked evicts sessions idle past the TTL, returning the
// evicted IDs so the caller can journal their close records after
// releasing sessMu (persistMu is never taken under sessMu). Caller
// holds sessMu.
func (s *Server) sweepSessionsLocked(now time.Time) []string {
	ttl := s.sessionTTL()
	if ttl < 0 {
		return nil
	}
	var evicted []string
	for id, ls := range s.sessions {
		if now.Sub(ls.last) > ttl {
			ls.sess.Close()
			delete(s.sessions, id)
			s.sessEvicted.Add(1)
			evicted = append(evicted, id)
		}
	}
	return evicted
}

// registerSession stores an opened session, evicting the
// least-recently-used entry if the registry is full. It returns the
// new ID plus any evicted IDs for the caller to journal.
func (s *Server) registerSession(sess *rlckit.Session, nodes int, engine rlckit.TreeEngine, body json.RawMessage) (string, []string) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	now := time.Now()
	evicted := s.sweepSessionsLocked(now)
	for len(s.sessions) >= s.maxSessions() {
		oldID, oldest := "", now
		for id, ls := range s.sessions {
			if !ls.last.After(oldest) || oldID == "" {
				oldID, oldest = id, ls.last
			}
		}
		s.sessions[oldID].sess.Close()
		delete(s.sessions, oldID)
		s.sessEvicted.Add(1)
		evicted = append(evicted, oldID)
	}
	s.sessSeq++
	id := fmt.Sprintf("s%d", s.sessSeq)
	s.sessions[id] = &liveSession{
		sess: sess, nodes: nodes, engine: engine,
		seq: s.sessSeq, body: body, last: now,
	}
	s.sessOpened.Add(1)
	return id, evicted
}

// lookupSession returns the live session for id (touching its idle
// clock), or nil if unknown or expired, plus any IDs the TTL sweep
// evicted on the way.
func (s *Server) lookupSession(id string) (*liveSession, []string) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	now := time.Now()
	evicted := s.sweepSessionsLocked(now)
	ls := s.sessions[id]
	if ls != nil {
		ls.last = now
	}
	return ls, evicted
}

// dropSession removes id from the registry (an explicit close, not an
// eviction), reporting whether it was present.
func (s *Server) dropSession(id string) bool {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	ls := s.sessions[id]
	if ls == nil {
		return false
	}
	ls.sess.Close()
	delete(s.sessions, id)
	return true
}

func (s *Server) sessionCount() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}

// closeSessions closes every live session (server shutdown).
func (s *Server) closeSessions() {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	for id, ls := range s.sessions {
		ls.sess.Close()
		delete(s.sessions, id)
	}
}

// computeSession runs a session compute inline (no compute slot) with
// the same panic containment as compute.
func (s *Server) computeSession(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errPanic, r)
		}
	}()
	faultinject.Panic(faultinject.SiteSession)
	return fn()
}

// sessionResult reads the session's delay table with the given engine
// and renders it through the shared /v1/tree response path, returning
// the marshaled body.
func (s *Server) sessionResult(ctx context.Context, sess *rlckit.Session, engine rlckit.TreeEngine, reason string) (json.RawMessage, error) {
	var res *rlckit.TreeResult
	err := s.computeSession(func() error {
		var ferr error
		res, ferr = sess.Result(ctx, engine)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	resp, err := s.treeResponse(res, reason)
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	// The body is read whole before parsing: the journal persists the
	// original bytes, and replaying them through this same decoder
	// rebuilds the identical session (the decoder is a pure function of
	// the body — FuzzServeRequest asserts it).
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	t, drv, key, err := parseTreeRequest(bytes.NewReader(body))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	sess, err := rlckit.OpenSession(t, drv, rlckit.TreeConfig{})
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, release := s.computeCtx(r)
	defer release()
	requested := rlckit.TreeEngine(key.method)
	engine, reason := degradeTree(ctx, requested, t.Len())
	raw, err := s.sessionResult(ctx, sess, engine, reason)
	if err != nil {
		s.failCompute(w, err)
		return
	}
	id, evicted := s.registerSession(sess, t.Len(), requested, body)
	s.journalCloses(evicted)
	s.journalAppend(journalRecord{Op: "open", ID: id, Body: body})
	s.finishSession(w, SessionOpenResponse{SessionID: id, Nodes: t.Len(), Gen: 0, Result: raw})
}

func (s *Server) handleSessionEdit(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ls, evicted := s.lookupSession(id)
	s.journalCloses(evicted)
	if ls == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown or expired session %q", id))
		return
	}
	req, err := parseSessionEditRequest(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	engine := ls.engine
	if req.Engine != "" {
		if engine, err = parseEnum("engine", req.Engine, treeEngines); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	if err := s.applyAndJournal(id, ls, req.Edits); err != nil {
		if errors.Is(err, session.ErrClosed) {
			// Evicted between lookup and apply.
			s.writeError(w, http.StatusNotFound, fmt.Errorf("session %q expired", id))
			return
		}
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.sessionEdits.Add(uint64(len(req.Edits)))
	ctx, release := s.computeCtx(r)
	defer release()
	eng, reason := degradeTree(ctx, engine, ls.nodes)
	raw, err := s.sessionResult(ctx, ls.sess, eng, reason)
	if err != nil {
		if errors.Is(err, session.ErrClosed) {
			s.writeError(w, http.StatusNotFound, fmt.Errorf("session %q expired", id))
			return
		}
		s.failCompute(w, err)
		return
	}
	s.finishSession(w, SessionEditResponse{SessionID: id, Gen: ls.sess.Stats().Gen, Result: raw})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.dropSession(id) {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown or expired session %q", id))
		return
	}
	s.journalAppend(journalRecord{Op: "close", ID: id})
	s.finishSession(w, SessionCloseResponse{SessionID: id, Closed: true})
}

// finishSession marshals and sends a session envelope (never cached).
func (s *Server) finishSession(w http.ResponseWriter, resp any) {
	body, err := json.Marshal(resp)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
