package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/maphash"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rlckit"
	"rlckit/internal/cache"
	"rlckit/internal/store"
)

// This file wires internal/store into the Server: a checksummed
// snapshot of the response cache and the reduced-model pencils plus an
// append-only journal of session opens/edits/closes. Recovery runs
// inside New — before the caller opens a listener — and restores warm
// cache entries (served byte-identical to the cold computes that
// produced them), pencils (warm reduced analyses skip the Arnoldi
// build bit-identically) and live sessions (rebuilt by replaying their
// edit history; sessions are deterministic in their edit sequence).
//
// Corruption policy is inherited from internal/store: every record and
// journal frame is CRC-framed; anything torn, corrupt or
// version-stale is counted (Stats.StoreDiscardedCorrupt) and dropped,
// never served. The serving layer adds its own guard on top: a
// snapshot key that no longer decodes to a canonical cacheKey is
// discarded the same way.

// storeVersion is the serving layer's store-format version, stamped
// into the snapshot and journal headers. Bump it when the cacheKey
// codec or the journal record shape changes incompatibly: stale files
// are then dropped wholesale at open (a cold start), never misread.
const storeVersion = 1

// Store namespaces.
const (
	nsCache  uint8 = 1
	nsPencil uint8 = 2
)

// maxPencils bounds the pencils held in memory, and so in snapshots. A
// 30-sink tree's pencil is ~200 KB; without a bound, a daemon fed
// fresh reduced trees grows by that much per tree. A pencil evicted
// least-recently-used only costs its tree a rebuild.
const maxPencils = 64

// pencilStore is the Server's rlckit.TreeConfig.Pencils backend: an
// LRU of certified reduced-model pencils keyed by the exact
// tree+drive+config bits, persisted through the snapshot store when
// one is configured. Safe for concurrent use.
type pencilStore struct {
	lru    *cache.Cache[string, []byte]
	builds atomic.Uint64
}

func newPencilStore() *pencilStore {
	return &pencilStore{lru: cache.New[string, []byte](maxPencils)}
}

func (p *pencilStore) GetPencil(key string) ([]byte, bool) { return p.lru.Get(key) }

func (p *pencilStore) PutPencil(key string, pencil []byte) {
	p.builds.Add(1)
	p.restore(key, pencil)
}

// restore inserts without counting a build (recovery path).
func (p *pencilStore) restore(key string, pencil []byte) {
	p.lru.Put(key, append([]byte(nil), pencil...))
}

// snapshot copies the pencils out in sorted key order, so consecutive
// snapshots of the same state are byte-identical on disk.
func (p *pencilStore) snapshot() (keys []string, vals [][]byte) {
	byKey := make(map[string][]byte)
	p.lru.Range(func(k string, v []byte) bool {
		keys = append(keys, k)
		byKey[k] = v
		return true
	})
	sort.Strings(keys)
	vals = make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = byKey[k]
	}
	return keys, vals
}

// journalRecord is one session-journal entry, JSON-encoded inside the
// store's CRC frame. Op "open" carries the original /v1/session
// request body (replaying it through the same decoder rebuilds the
// identical tree); "edit" carries one applied batch; "close" retires
// an ID (explicit delete or eviction).
type journalRecord struct {
	Op    string               `json:"op"`
	ID    string               `json:"id"`
	Body  json.RawMessage      `json:"body,omitempty"`
	Edits []rlckit.SessionEdit `json:"edits,omitempty"`
}

// openStore opens the store directory, recovers the previous process's
// state, and starts the snapshot loop. Called from New.
func (s *Server) openStore() error {
	st, err := store.Open(s.cfg.StoreDir, store.Options{Version: storeVersion, Sync: s.cfg.JournalSync})
	if err != nil {
		return err
	}
	s.store = st
	s.recoverStore()
	s.snapStop = make(chan struct{})
	s.snapDone = make(chan struct{})
	interval := s.cfg.SnapshotInterval
	if interval == 0 {
		interval = DefaultSnapshotInterval
	}
	if interval > 0 {
		go s.snapshotLoop(interval)
	} else {
		close(s.snapDone)
	}
	return nil
}

// recoverStore loads the snapshot into the cache and pencil store,
// then replays the session journal. Store-level corruption is already
// counted by internal/store; this layer additionally discards records
// whose keys or payloads no longer decode.
func (s *Server) recoverStore() {
	_ = s.store.LoadSnapshot(func(ns uint8, key, val []byte) {
		switch ns {
		case nsCache:
			if s.cache == nil {
				return
			}
			k, ok := decodeCacheKey(key)
			if !ok {
				s.storeDiscarded.Add(1)
				return
			}
			body := append([]byte(nil), val...)
			s.cache.Put(k, cacheEntry{body: body, sum: maphash.Bytes(cacheHashSeed, body), warm: true})
			s.storeRecovered.Add(1)
		case nsPencil:
			s.pencils.restore(string(key), val)
			s.storeRecovered.Add(1)
		default:
			s.storeDiscarded.Add(1)
		}
	})
	_ = s.store.ReplayJournal(func(payload []byte) error {
		s.replayRecord(payload)
		return nil
	})
}

// replayRecord applies one journal record to the session registry. A
// record that fails to decode or apply is dropped and counted — the
// journal's CRC framing already cut torn tails, so a failure here
// means a semantically invalid record, and serving without that
// session beats serving a wrong one.
func (s *Server) replayRecord(payload []byte) {
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		s.storeDiscarded.Add(1)
		return
	}
	switch rec.Op {
	case "open":
		t, drv, key, err := parseTreeRequest(bytes.NewReader(rec.Body))
		if err != nil {
			s.storeDiscarded.Add(1)
			return
		}
		sess, err := rlckit.OpenSession(t, drv, rlckit.TreeConfig{Pencils: s.pencils})
		if err != nil {
			s.storeDiscarded.Add(1)
			return
		}
		s.restoreSession(rec.ID, sess, t.Len(), rlckit.TreeEngine(key.method), rec.Body)
		s.storeRecovered.Add(1)
	case "edit":
		s.sessMu.Lock()
		ls := s.sessions[rec.ID]
		s.sessMu.Unlock()
		if ls == nil {
			// The open was dropped (or this ID was closed); its edits
			// follow it out.
			s.storeDiscarded.Add(1)
			return
		}
		if err := ls.sess.Apply(rec.Edits); err != nil {
			s.storeDiscarded.Add(1)
			return
		}
		s.storeRecovered.Add(1)
	case "close":
		s.sessMu.Lock()
		if ls := s.sessions[rec.ID]; ls != nil {
			ls.sess.Close()
			delete(s.sessions, rec.ID)
		}
		s.sessMu.Unlock()
		s.storeRecovered.Add(1)
	default:
		s.storeDiscarded.Add(1)
	}
}

// restoreSession registers a replayed session under its original ID,
// advancing sessSeq past it so new sessions never collide with
// recovered ones.
func (s *Server) restoreSession(id string, sess *rlckit.Session, nodes int, engine rlckit.TreeEngine, body json.RawMessage) {
	seq := uint64(0)
	if strings.HasPrefix(id, "s") {
		if n, err := strconv.ParseUint(id[1:], 10, 64); err == nil {
			seq = n
		}
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if seq > s.sessSeq {
		s.sessSeq = seq
	}
	s.sessions[id] = &liveSession{
		sess: sess, nodes: nodes, engine: engine, seq: seq,
		body: append(json.RawMessage(nil), body...), last: time.Now(),
	}
	s.sessOpened.Add(1)
}

// journalAppend marshals and appends one record under persistMu.
// Append errors are swallowed: the store rolls a failed append back to
// a clean frame boundary, so the journal stays replayable and the
// session merely loses crash durability for this record.
func (s *Server) journalAppend(rec journalRecord) {
	if s.store == nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	_ = s.store.Append(payload)
}

// journalCloses appends close records for evicted session IDs.
func (s *Server) journalCloses(ids []string) {
	for _, id := range ids {
		s.journalAppend(journalRecord{Op: "close", ID: id})
	}
}

// applyAndJournal applies an edit batch and journals it as one
// serialized step, so the journal's batch order always matches the
// order the batches were applied in (replay equivalence). Without a
// store it is a plain Apply.
func (s *Server) applyAndJournal(id string, ls *liveSession, edits []rlckit.SessionEdit) error {
	if s.store == nil {
		return ls.sess.Apply(edits)
	}
	payload, merr := json.Marshal(journalRecord{Op: "edit", ID: id, Edits: edits})
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if err := ls.sess.Apply(edits); err != nil {
		return err
	}
	if merr == nil {
		_ = s.store.Append(payload)
	}
	return nil
}

// snapshotNow writes one atomic snapshot (cache entries + pencils) and
// compacts the journal down to the live sessions. A crash at any point
// leaves either the previous snapshot+journal or the new ones — the
// store's temp-file/rename protocol guarantees it.
func (s *Server) snapshotNow() error {
	if s.store == nil {
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	w, err := s.store.BeginSnapshot()
	if err != nil {
		return err
	}
	if s.cache != nil {
		s.cache.Range(func(k cacheKey, e cacheEntry) bool {
			// Never persist an entry that fails its in-memory checksum.
			if maphash.Bytes(cacheHashSeed, e.body) != e.sum {
				return true
			}
			err = w.Add(nsCache, encodeCacheKey(&k), e.body)
			return err == nil
		})
		if err != nil {
			w.Abort()
			return err
		}
	}
	keys, vals := s.pencils.snapshot()
	for i, k := range keys {
		if err := w.Add(nsPencil, []byte(k), vals[i]); err != nil {
			w.Abort()
			return err
		}
	}
	if err := w.Commit(); err != nil {
		return err
	}
	return s.compactJournalLocked()
}

// compactJournalLocked rewrites the journal to exactly the live
// sessions: one open record (the original request body) plus one edit
// record per applied batch, in session-open order. Caller holds
// persistMu; sessMu is taken only for the registry copy, and each
// session's History is read outside any server lock.
func (s *Server) compactJournalLocked() error {
	type ent struct {
		id   string
		seq  uint64
		body json.RawMessage
		sess *rlckit.Session
	}
	s.sessMu.Lock()
	live := make([]ent, 0, len(s.sessions))
	for id, ls := range s.sessions {
		live = append(live, ent{id: id, seq: ls.seq, body: ls.body, sess: ls.sess})
	}
	s.sessMu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	var payloads [][]byte
	for _, e := range live {
		if len(e.body) == 0 {
			continue
		}
		p, err := json.Marshal(journalRecord{Op: "open", ID: e.id, Body: e.body})
		if err != nil {
			continue
		}
		payloads = append(payloads, p)
		for _, batch := range e.sess.History() {
			p, err := json.Marshal(journalRecord{Op: "edit", ID: e.id, Edits: batch})
			if err != nil {
				continue
			}
			payloads = append(payloads, p)
		}
	}
	return s.store.RewriteJournal(payloads)
}

// snapshotLoop snapshots periodically until Close.
func (s *Server) snapshotLoop(interval time.Duration) {
	defer close(s.snapDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			_ = s.snapshotNow()
		}
	}
}

// The cacheKey codec: a fixed-layout binary encoding of the canonical
// request key, so a snapshot written by one process decodes to the
// exact comparable struct in the next. Floats are stored as raw IEEE
// bits (the key is exact-bits by design); the three variable-length
// strings are length-prefixed and placed last.

var ckle = binary.LittleEndian

// ckFixedLen is the fixed prefix: kind, method, 14 float64s, nets,
// seed, samples as u64, one bool byte.
const ckFixedLen = 2 + 14*8 + 3*8 + 1

func encodeCacheKey(k *cacheKey) []byte {
	b := make([]byte, 0, ckFixedLen+12+len(k.node)+len(k.corners)+len(k.tree))
	b = append(b, k.kind, k.method)
	for _, f := range [...]float64{
		k.line.R, k.line.L, k.line.C, k.line.Length,
		k.drive.Rtr, k.drive.CL, k.drive.V, k.rise,
		k.buffer.R0, k.buffer.C0, k.buffer.Amin, k.buffer.Vdd,
		k.sigma, k.drvSig,
	} {
		b = ckle.AppendUint64(b, math.Float64bits(f))
	}
	b = ckle.AppendUint64(b, uint64(k.nets))
	b = ckle.AppendUint64(b, uint64(k.seed))
	b = ckle.AppendUint64(b, uint64(k.samples))
	if k.repeat {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for _, s := range [...]string{k.node, k.corners, k.tree} {
		b = ckle.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return b
}

// decodeCacheKey is the exact inverse; it rejects short buffers,
// oversized string lengths and trailing bytes, so a corrupted key can
// never alias a different request.
func decodeCacheKey(b []byte) (cacheKey, bool) {
	var k cacheKey
	if len(b) < ckFixedLen {
		return k, false
	}
	k.kind, k.method = b[0], b[1]
	off := 2
	fs := make([]float64, 14)
	for i := range fs {
		fs[i] = math.Float64frombits(ckle.Uint64(b[off:]))
		off += 8
	}
	k.line.R, k.line.L, k.line.C, k.line.Length = fs[0], fs[1], fs[2], fs[3]
	k.drive.Rtr, k.drive.CL, k.drive.V, k.rise = fs[4], fs[5], fs[6], fs[7]
	k.buffer.R0, k.buffer.C0, k.buffer.Amin, k.buffer.Vdd = fs[8], fs[9], fs[10], fs[11]
	k.sigma, k.drvSig = fs[12], fs[13]
	k.nets = int(int64(ckle.Uint64(b[off:])))
	k.seed = int64(ckle.Uint64(b[off+8:]))
	k.samples = int(int64(ckle.Uint64(b[off+16:])))
	off += 24
	switch b[off] {
	case 0:
	case 1:
		k.repeat = true
	default:
		return cacheKey{}, false
	}
	off++
	strs := make([]string, 3)
	for i := range strs {
		if len(b)-off < 4 {
			return cacheKey{}, false
		}
		n := int(ckle.Uint32(b[off:]))
		off += 4
		if n < 0 || len(b)-off < n {
			return cacheKey{}, false
		}
		strs[i] = string(b[off : off+n])
		off += n
	}
	if off != len(b) {
		return cacheKey{}, false
	}
	k.node, k.corners, k.tree = strs[0], strs[1], strs[2]
	return k, true
}
