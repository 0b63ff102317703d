package analysis

import (
	"slices"
	"sort"

	"repro/internal/core"
)

// Loop is a natural loop: a header block plus the set of blocks that can
// reach a back edge to the header without leaving the loop.
type Loop struct {
	Header *core.BasicBlock
	Blocks map[*core.BasicBlock]bool
	Parent *Loop
	Subs   []*Loop
	// Latches are the blocks with back edges to the header.
	Latches []*core.BasicBlock
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *core.BasicBlock) bool { return l.Blocks[b] }

// Depth returns the nesting depth (outermost loop = 1).
func (l *Loop) Depth() int {
	d := 0
	for x := l; x != nil; x = x.Parent {
		d++
	}
	return d
}

// Exits returns the blocks outside the loop that are branched to from
// inside it, ordered by block ID.
func (l *Loop) Exits() []*core.BasicBlock {
	var out []*core.BasicBlock
	for b := range l.Blocks {
		for _, s := range b.Succs() {
			if !l.Blocks[s] && !slices.Contains(out, s) {
				out = append(out, s)
			}
		}
	}
	slices.SortFunc(out, func(a, b *core.BasicBlock) int { return a.ID() - b.ID() })
	return out
}

// Preheader returns the unique predecessor of the header outside the loop,
// or nil if there is none (or more than one).
func (l *Loop) Preheader() *core.BasicBlock {
	var ph *core.BasicBlock
	for _, p := range l.Header.Preds() {
		if l.Blocks[p] {
			continue
		}
		if ph != nil {
			return nil
		}
		ph = p
	}
	return ph
}

// LoopInfo holds every natural loop of a function.
type LoopInfo struct {
	// TopLevel lists outermost loops in header-RPO order.
	TopLevel []*Loop
	// ByHeader maps a header block to its (innermost) loop.
	ByHeader map[*core.BasicBlock]*Loop
	dom      *core.Dominators
	// loopOf is the innermost loop containing each block, by RPO number
	// (only reachable blocks are in loops).
	loopOf []*Loop
}

// LoopFor returns the innermost loop containing b, or nil.
func (li *LoopInfo) LoopFor(b *core.BasicBlock) *Loop {
	if n := li.dom.Num(b); n >= 0 {
		return li.loopOf[n]
	}
	return nil
}

// Depth returns the loop nesting depth of b (0 = not in a loop).
func (li *LoopInfo) Depth(b *core.BasicBlock) int {
	if l := li.LoopFor(b); l != nil {
		return l.Depth()
	}
	return 0
}

// All returns every loop, outer loops before their subloops.
func (li *LoopInfo) All() []*Loop {
	var out []*Loop
	var walk func(l *Loop)
	walk = func(l *Loop) {
		out = append(out, l)
		for _, s := range l.Subs {
			walk(s)
		}
	}
	for _, l := range li.TopLevel {
		walk(l)
	}
	return out
}

// NewLoopInfo identifies natural loops from back edges (edges whose target
// dominates their source), merging loops that share a header and nesting
// loops by block containment.
func NewLoopInfo(f *core.Function, dt *DomTree) *LoopInfo {
	rpo := dt.RPO()
	li := &LoopInfo{ByHeader: map[*core.BasicBlock]*Loop{}, dom: dt.Dominators, loopOf: make([]*Loop, len(rpo))}

	// Find back edges and collect loop bodies.
	var headers []*core.BasicBlock
	for _, b := range rpo {
		for _, s := range b.Succs() {
			if dt.Dominates(s, b) {
				loop := li.ByHeader[s]
				if loop == nil {
					loop = &Loop{Header: s, Blocks: map[*core.BasicBlock]bool{s: true}}
					li.ByHeader[s] = loop
					headers = append(headers, s)
				}
				loop.Latches = append(loop.Latches, b)
				// Walk predecessors backward from the latch to the header.
				work := []*core.BasicBlock{b}
				for len(work) > 0 {
					x := work[len(work)-1]
					work = work[:len(work)-1]
					if loop.Blocks[x] || !dt.Reachable(x) {
						continue
					}
					loop.Blocks[x] = true
					for _, p := range x.Preds() {
						work = append(work, p)
					}
				}
			}
		}
	}

	// Establish nesting: visit headers in RPO; a loop is a subloop of the
	// innermost loop already known to contain its header (other than itself).
	slices.SortFunc(headers, func(a, b *core.BasicBlock) int { return li.dom.Num(a) - li.dom.Num(b) })
	// Sort outer loops first (bigger block sets first for same header order).
	sort.SliceStable(headers, func(i, j int) bool {
		return len(li.ByHeader[headers[i]].Blocks) > len(li.ByHeader[headers[j]].Blocks)
	})
	for _, h := range headers {
		loop := li.ByHeader[h]
		// Find enclosing loop: innermost loop of the header other than loop.
		if enc := li.LoopFor(h); enc != nil && enc != loop {
			loop.Parent = enc
			enc.Subs = append(enc.Subs, loop)
		} else {
			li.TopLevel = append(li.TopLevel, loop)
		}
		// Claim blocks for this (inner-more) loop.
		for b := range loop.Blocks {
			n := li.dom.Num(b)
			if cur := li.loopOf[n]; cur == nil || len(cur.Blocks) > len(loop.Blocks) {
				li.loopOf[n] = loop
			}
		}
	}
	return li
}
