package main

import (
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// spanLog records the traced pass's spans. Every span is opened here, in the
// benchmark's own files, around a call into one layer's public functions;
// the program under test is not touched. Each span is kept twice: as an
// obs.Tracer span, exported as Chrome trace JSON, and as a spanRec with
// nanosecond times, from which the per-layer self times are computed (the
// trace format rounds to microseconds, coarser than several layers take).
//
// A nil *spanLog is the untraced state: start returns nil, end on nil is a
// no-op, so the timed windows run the same code with tracing off.
type spanLog struct {
	tr    *obs.Tracer
	epoch time.Time
	recs  []spanRec
}

// spanRec is one finished span: name, start, end, the span that caused it
// and the op the whole tree belongs to.
type spanRec struct {
	name       string
	start, end time.Duration // since the log was opened
	parent     int           // index into recs, -1 for an op's root
	op         int
}

type liveSpan struct {
	log *spanLog
	idx int
	sp  obs.Span
}

func newSpanLog() *spanLog { return &spanLog{tr: obs.NewTracer(), epoch: time.Now()} }

// start opens a span named name under parent (nil opens the root of op).
func (l *spanLog) start(name string, op int, parent *liveSpan) *liveSpan {
	if l == nil {
		return nil
	}
	pidx, pctx := -1, obs.SpanContext{Trace: "op-" + strconv.Itoa(op)}
	if parent != nil {
		pidx, pctx = parent.idx, parent.sp.Context()
	}
	l.recs = append(l.recs, spanRec{name: name, parent: pidx, op: op})
	s := &liveSpan{log: l, idx: len(l.recs) - 1, sp: l.tr.StartSpan(name, layerOf(name), 0, pctx)}
	l.recs[s.idx].start = time.Since(l.epoch)
	return s
}

func (s *liveSpan) end() {
	if s == nil {
		return
	}
	s.log.recs[s.idx].end = time.Since(s.log.epoch)
	s.sp.End()
}

// layerOf is the module a span is charged to: the name up to the first dot.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// writeTrace exports the spans as Chrome trace JSON (Perfetto reads it).
func (l *spanLog) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover. Children may overlap each other
// (concurrent work) or stick out of the parent (a clock read on either side);
// only the union of their intervals, clipped to the parent, is subtracted.
func selfTimes(recs []spanRec) []time.Duration {
	children := make([][]int, len(recs))
	for i, r := range recs {
		if r.parent >= 0 {
			children[r.parent] = append(children[r.parent], i)
		}
	}
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return recs[kids[a]].start < recs[kids[b]].start })
		covered, reach := time.Duration(0), r.start
		for _, k := range kids {
			s, e := recs[k].start, recs[k].end
			if s < reach {
				s = reach
			}
			if e > r.end {
				e = r.end
			}
			if e > s {
				covered += e - s
				reach = e
			}
		}
		out[i] = r.end - r.start - covered
	}
	return out
}

// perOp sums, for every op, the self time of the spans whose name passes
// match, and returns one value in milliseconds per op that had any.
func perOp(recs []spanRec, self []time.Duration, match func(name string) bool) []float64 {
	byOp := map[int]time.Duration{}
	for i, r := range recs {
		if match(r.name) {
			byOp[r.op] += self[i]
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, d := range byOp {
		out = append(out, ms(d))
	}
	return out
}
