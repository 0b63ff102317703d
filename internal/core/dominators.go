package core

// Dominators is the dominator tree of a function's reachable blocks: the
// one dominator computation in the repository, shared by the verifier and
// the analysis package. It runs the iterative Cooper-Harvey-Kennedy
// algorithm over reverse postorder and keeps every fact in slices indexed
// by reverse-postorder number, reached from a block through its ID.
//
// Building it only reads the function. A block that was not in the
// function when the tree was built (or belongs to another function) is
// treated as unreachable.
type Dominators struct {
	rpo []*BasicBlock // reachable blocks in reverse postorder
	num []int32       // by block ID: RPO number, -1 if unreachable
	// By RPO number: immediate dominator (the entry's is itself), Euler
	// numbers of the dominator tree for O(1) Dominates, and the children,
	// kids[kidOff[n]:kidOff[n+1]], in reverse postorder.
	idom, pre, post, kidOff []int32
	kids                    []*BasicBlock
}

// NewDominators computes the dominator tree of f.
func NewDominators(f *Function) *Dominators {
	d := &Dominators{}
	if len(f.Blocks) == 0 {
		return d
	}
	d.rpo, d.num = reversePostorder(f)
	n := len(d.rpo)
	slab := make([]int32, 5*n+1)
	d.idom, d.pre, d.post, d.kidOff = slab[:n], slab[n:2*n], slab[2*n:3*n], slab[3*n:4*n+1]
	next := slab[4*n+1:] // next child to visit in the Euler walk, by RPO number

	// Cooper-Harvey-Kennedy: iterate to the fixed point in RPO, where a
	// block's processed predecessors have smaller numbers than it unless
	// the edge is a back edge.
	for i := range d.idom {
		d.idom[i] = -1
	}
	d.idom[0] = 0
	for changed := true; changed; {
		changed = false
		for b := 1; b < n; b++ {
			nd := int32(-1)
			for _, u := range d.rpo[b].uses {
				p := d.Num(predOf(u))
				if p < 0 || d.idom[p] < 0 {
					continue // unreachable, or not processed yet
				}
				if nd < 0 {
					nd = int32(p)
					continue
				}
				for a := int32(p); a != nd; {
					for a > nd {
						a = d.idom[a]
					}
					for nd > a {
						nd = d.idom[nd]
					}
				}
			}
			if nd >= 0 && d.idom[b] != nd {
				d.idom[b] = nd
				changed = true
			}
		}
	}

	// Children grouped by parent, each group in RPO order.
	for b := 1; b < n; b++ {
		d.kidOff[d.idom[b]+1]++
	}
	for b := 1; b <= n; b++ {
		d.kidOff[b] += d.kidOff[b-1]
	}
	d.kids = make([]*BasicBlock, n)
	fill := append([]int32(nil), d.kidOff[:n]...)
	for b := 1; b < n; b++ {
		p := d.idom[b]
		d.kids[fill[p]] = d.rpo[b]
		fill[p]++
	}

	// Euler numbering: pre on entry, post on exit of a preorder walk.
	counter := int32(0)
	stack := fill[:0]
	counter++
	d.pre[0] = counter
	stack = append(stack, 0)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		if k := d.kidOff[b] + next[b]; k < d.kidOff[b+1] {
			next[b]++
			c := d.Num(d.kids[k])
			counter++
			d.pre[c] = counter
			stack = append(stack, int32(c))
			continue
		}
		counter++
		d.post[b] = counter
		stack = stack[:len(stack)-1]
	}
	return d
}

// ReversePostorder returns the blocks of f reachable from the entry in
// reverse postorder, the order Dominators.RPO lists them in.
func ReversePostorder(f *Function) []*BasicBlock {
	if len(f.Blocks) == 0 {
		return nil
	}
	rpo, _ := reversePostorder(f)
	return rpo
}

// reversePostorder returns the blocks of f reachable from the entry in
// reverse postorder — the order of a depth-first walk that visits
// successors in terminator order — and, indexed by block ID, each block's
// position in it (-1 for blocks it does not reach).
func reversePostorder(f *Function) ([]*BasicBlock, []int32) {
	const onStack = -2
	num := make([]int32, f.NumBlockIDs())
	for i := range num {
		num[i] = -1
	}
	type frame struct {
		b    *BasicBlock
		t    Instruction
		next int
	}
	entry := f.Blocks[0]
	stack := []frame{{b: entry, t: entry.Terminator()}}
	num[entry.id] = onStack
	var post []*BasicBlock
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.t != nil && top.next < numSuccs(top.t) {
			s := succ(top.t, top.next)
			top.next++
			if s.parent == f && int(s.id) < len(num) && s.id > 0 && num[s.id] == -1 {
				num[s.id] = onStack
				stack = append(stack, frame{b: s, t: s.Terminator()})
			}
			continue
		}
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	for i, b := range post {
		num[b.id] = int32(i)
	}
	return post, num
}

// Num returns b's reverse-postorder number, or -1 if b is unreachable or
// was not in the function when the tree was built.
func (d *Dominators) Num(b *BasicBlock) int {
	if b == nil || b.id <= 0 || int(b.id) >= len(d.num) {
		return -1
	}
	n := d.num[b.id]
	if n < 0 || d.rpo[n] != b {
		return -1
	}
	return int(n)
}

// RPO returns the reachable blocks in reverse postorder.
func (d *Dominators) RPO() []*BasicBlock { return d.rpo }

// Reachable reports whether b is reachable from the entry block.
func (d *Dominators) Reachable(b *BasicBlock) bool { return d.Num(b) >= 0 }

// IdomNum returns the RPO number of the immediate dominator of the block
// numbered n; the entry (n = 0) is its own.
func (d *Dominators) IdomNum(n int) int { return int(d.idom[n]) }

// Idom returns the immediate dominator of b: nil for the entry block and
// for unreachable blocks.
func (d *Dominators) Idom(b *BasicBlock) *BasicBlock {
	if n := d.Num(b); n > 0 {
		return d.rpo[d.idom[n]]
	}
	return nil
}

// Dominates reports whether a dominates b. Every reachable block
// dominates itself; an unreachable block dominates nothing and is
// dominated by nothing.
func (d *Dominators) Dominates(a, b *BasicBlock) bool {
	na, nb := d.Num(a), d.Num(b)
	if na < 0 || nb < 0 {
		return false
	}
	return d.pre[na] <= d.pre[nb] && d.post[na] >= d.post[nb]
}

// Children returns the dominator-tree children of b in reverse postorder.
func (d *Dominators) Children(b *BasicBlock) []*BasicBlock {
	n := d.Num(b)
	if n < 0 {
		return nil
	}
	lo, hi := d.kidOff[n], d.kidOff[n+1]
	if lo == hi {
		return nil
	}
	return d.kids[lo:hi:hi]
}
