package obs

import (
	"sync"
	"time"
)

// Recorder is the serving layer's flight recorder: an always-on, bounded
// ring buffer of recent request timelines. When a request five minutes
// ago was slow, /debug/requests shows what it did — endpoint, trace ID,
// cluster hops, cache and dedup outcome, per-phase durations — without
// anyone having pre-arranged tracing. The ring holds the most recent Cap
// records; older ones are overwritten in arrival order (strict FIFO
// eviction, no size accounting — records are small and bounded because
// trace IDs are validated and hop/phase lists are fixed by the code, not
// the client).
//
// A nil *Recorder discards everything, and every RequestRecord mutator is
// nil-safe, so disabled paths cost nothing.
type Recorder struct {
	mu    sync.Mutex
	buf   []RequestRecord
	next  int    // ring write cursor
	total uint64 // lifetime count (total - len(buf) were evicted)
}

// DefaultRecorderCap bounds the flight recorder's ring. A few hundred
// requests is enough to cover "a slow request five minutes ago" at the
// request rates one node serves, at well under a megabyte.
const DefaultRecorderCap = 512

// NewRecorder returns a recorder holding the most recent n requests
// (n <= 0 = DefaultRecorderCap).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultRecorderCap
	}
	return &Recorder{buf: make([]RequestRecord, 0, n)}
}

// Add appends one finished request, evicting the oldest at capacity.
func (r *Recorder) Add(rec RequestRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else if cap(r.buf) > 0 {
		r.buf[r.next] = rec
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the recorded requests, newest first. Nil on a nil or
// empty recorder.
func (r *Recorder) Snapshot() []RequestRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RequestRecord, 0, len(r.buf))
	// The ring's oldest entry sits at next (once wrapped); walk backwards
	// from the newest.
	for i := 0; i < len(r.buf); i++ {
		idx := (r.next - 1 - i + 2*len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// ByTrace returns the recorded requests carrying trace ID id, newest
// first — one request per process hop, so on a single node this is
// usually one record, and a front sees its own plus nothing (each
// process keeps its own recorder).
func (r *Recorder) ByTrace(id string) []RequestRecord {
	if r == nil || id == "" {
		return nil
	}
	var out []RequestRecord
	for _, rec := range r.Snapshot() {
		if rec.TraceID == id {
			out = append(out, rec)
		}
	}
	return out
}

// Cap returns the ring's capacity (0 on nil).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return cap(r.buf)
}

// Total returns how many requests were ever recorded; Total() - Len()
// were evicted at the cap.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Len returns how many requests are currently held (0 on nil).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Hop is one cluster-internal dependency call made while serving a
// request: the front routing to a peer, a node fetching an artifact
// through from its owner, or a profile forward.
type Hop struct {
	Peer    string  `json:"peer"`
	Kind    string  `json:"kind"`    // "route", "fetch-through", "profile-forward"
	Outcome string  `json:"outcome"` // "ok", "hit", "miss", "error", "down", relayed statuses
	Seconds float64 `json:"seconds"`
}

// PhaseTiming is one named phase of a request's lifetime (read/parse,
// compile, execute, ...) with its duration.
type PhaseTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// RequestRecord is one request's flight-recorder entry. It doubles as
// the structured access-log line (the JSON field names are the access
// log's wire format — tests pin them). Mutators are nil-safe so
// instrumented paths never branch on "is recording on"; they are not
// goroutine-safe — a record belongs to its request's handler goroutine
// until the middleware finalizes it.
type RequestRecord struct {
	Time     time.Time `json:"time"`
	TraceID  string    `json:"trace_id"`
	SpanID   string    `json:"span_id,omitempty"`
	Method   string    `json:"method"`
	Path     string    `json:"path"`
	Endpoint string    `json:"endpoint,omitempty"`
	Status   int       `json:"status"`
	Bytes    int64     `json:"bytes"`
	Duration float64   `json:"duration_seconds"`
	// Cache is /compile's disposition ("hit", "remote", "miss") or
	// /check's ("hit", "miss").
	Cache string `json:"cache,omitempty"`
	// Dedup marks single-flight fan-in: "follower" for a request that
	// shared another request's pipeline run, with JoinedTrace naming the
	// leader's trace ID so the shared work is attributable.
	Dedup       string `json:"dedup,omitempty"`
	JoinedTrace string `json:"joined_trace,omitempty"`
	// Peer is the serving peer a front routed this request to.
	Peer string `json:"peer,omitempty"`
	// Error carries a request-level failure detail (trap text, timeout).
	Error  string        `json:"error,omitempty"`
	Hops   []Hop         `json:"hops,omitempty"`
	Phases []PhaseTiming `json:"phases,omitempty"`
}

// SetCache records /compile's or /check's cache disposition.
func (r *RequestRecord) SetCache(word string) {
	if r != nil {
		r.Cache = word
	}
}

// SetDedup marks this request a single-flight follower of leaderTrace.
func (r *RequestRecord) SetDedup(role, leaderTrace string) {
	if r != nil {
		r.Dedup = role
		r.JoinedTrace = leaderTrace
	}
}

// SetPeer records the peer a front routed to.
func (r *RequestRecord) SetPeer(peer string) {
	if r != nil {
		r.Peer = peer
	}
}

// SetError records a request-level failure detail.
func (r *RequestRecord) SetError(msg string) {
	if r != nil {
		r.Error = msg
	}
}

// AddHop appends one cluster-internal dependency call.
func (r *RequestRecord) AddHop(peer, kind, outcome string, d time.Duration) {
	if r != nil {
		r.Hops = append(r.Hops, Hop{Peer: peer, Kind: kind, Outcome: outcome, Seconds: d.Seconds()})
	}
}

// AddPhase appends one named phase duration.
func (r *RequestRecord) AddPhase(name string, d time.Duration) {
	if r != nil {
		r.Phases = append(r.Phases, PhaseTiming{Name: name, Seconds: d.Seconds()})
	}
}
