package adsplus

import (
	"container/heap"
	"math"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/sax"
)

// nodeMinDistSq lower-bounds (squared) the distance between the query and
// any series under node n, using each segment's symbol prefix at its own
// cardinality. The per-query tables of the squared-space pruning pipeline
// serve every cardinality level (ctx.P.FillAll at search entry), so a node
// bound is one table lookup per segment — no Region derivation, no sqrt.
func nodeMinDistSq(p *index.Pruner, n *node) float64 {
	return p.MinDistSqMixed(n.syms, n.bits)
}

// descend walks from a root to the leaf covering word w.
func descend(n *node, w sax.Word) *node {
	for !n.leaf {
		n = n.children[segBit(w, n.splitSeg, int(n.bits[n.splitSeg]))]
	}
	return n
}

// ApproxInto is the approximate search (index.Index): descend to the leaf
// that covers the query's iSAX word and evaluate it (one scattered leaf
// read). If that root subtree does not exist, the closest existing root by
// lower bound is used. ADS+ searches serially, whatever pool the context
// carries; node bounds need its tables at every cardinality, so a body
// begins by extending them (FillAll is idempotent).
func (t *Tree) ApproxInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	if len(t.roots) == 0 {
		return nil
	}
	defer ctx.Trace.Start("approx").End()
	ctx.P.FillAll()
	sc := ctx.Scratch0()
	w := sax.FromPAA(q.PAA, t.opts.Config.Bits)
	root, ok := t.roots[t.rootKey(w)]
	if !ok {
		best := math.Inf(1)
		for _, rk := range t.rootKeys {
			if d := nodeMinDistSq(sc.P, t.roots[rk]); d < best {
				best, root = d, t.roots[rk]
			}
		}
	}
	leafNode := descend(root, w)
	if err := t.evalLeaf(leafNode, q, col, sc); err != nil {
		return err
	}
	// If the leaf was too sparse for k results, widen to the best remaining
	// leaves by lower bound (still approximate: no guarantee).
	if !col.Full() {
		pq := t.newNodeQueue(q, sc.P)
		for pq.Len() > 0 && !col.Full() {
			n := heap.Pop(pq).(*nodeDist).n
			if n == leafNode {
				continue
			}
			if err := t.evalLeaf(n, q, col, sc); err != nil {
				return err
			}
		}
	}
	return nil
}

// ExactInto is the exact search (index.Index), a best-first traversal:
// nodes are visited in squared lower-bound order and leaves whose bound
// reaches the current squared k-th distance are pruned. Every visited leaf
// is a separate extent, so exact search pays one head movement per surviving
// leaf.
func (t *Tree) ExactInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	if err := t.ApproxInto(q, col, ctx); err != nil {
		return err
	}
	defer ctx.Trace.Start("scan").End()
	sc := ctx.Scratch0()
	pq := &nodePQ{}
	for _, rk := range t.rootKeys {
		n := t.roots[rk]
		heap.Push(pq, &nodeDist{n: n, d: nodeMinDistSq(sc.P, n)})
	}
	for pq.Len() > 0 {
		nd := heap.Pop(pq).(*nodeDist)
		if nd.d >= col.WorstSq() {
			break // every remaining node is at least this far
		}
		if nd.n.leaf {
			if err := t.evalLeaf(nd.n, q, col, sc); err != nil {
				return err
			}
			continue
		}
		for b := 0; b < 2; b++ {
			c := nd.n.children[b]
			if d := nodeMinDistSq(sc.P, c); d < col.WorstSq() {
				heap.Push(pq, &nodeDist{n: c, d: d})
			} else if c.leaf {
				sc.Tally.Note(obs.LeafUnit, 0, 1)
			}
		}
	}
	return nil
}

// evalLeaf computes true distances for the in-window entries of a leaf
// (disk extent plus buffer) that survive col's bound (index.EvalPage).
func (t *Tree) evalLeaf(n *node, q index.Query, col *index.Collector, sc *index.Scratch) error {
	entries, err := t.loadLeaf(n)
	if err != nil {
		return err
	}
	sc.Tally.Note(obs.LeafUnit, 1, 0)
	pg := index.EntryPage(entries)
	_, err = index.EvalPage(&q, &pg, t.opts.Raw, col, sc)
	return err
}

// newNodeQueue builds a priority queue of all leaves ordered by squared
// lower bound.
func (t *Tree) newNodeQueue(q index.Query, p *index.Pruner) *nodePQ {
	pq := &nodePQ{}
	t.walk(func(n *node) {
		if n.leaf {
			pq.items = append(pq.items, &nodeDist{n: n, d: nodeMinDistSq(p, n)})
		}
	})
	heap.Init(pq)
	return pq
}

type nodeDist struct {
	n *node
	d float64 // squared lower bound
}

type nodePQ struct {
	items []*nodeDist
}

func (p *nodePQ) Len() int           { return len(p.items) }
func (p *nodePQ) Less(i, j int) bool { return p.items[i].d < p.items[j].d }
func (p *nodePQ) Swap(i, j int)      { p.items[i], p.items[j] = p.items[j], p.items[i] }
func (p *nodePQ) Push(x any)         { p.items = append(p.items, x.(*nodeDist)) }
func (p *nodePQ) Pop() any {
	old := p.items
	n := len(old)
	x := old[n-1]
	p.items = old[:n-1]
	return x
}

// RangeInto is the range search (index.Index): every subtree whose squared
// node bound is within the range collector's limit is visited.
func (t *Tree) RangeInto(q index.Query, col *index.Collector, ctx *index.SearchCtx) error {
	ctx.P.FillAll()
	sc := ctx.Scratch0()
	var visit func(n *node) error
	visit = func(n *node) error {
		if col.SkipSq(nodeMinDistSq(sc.P, n)) {
			if n.leaf {
				sc.Tally.Note(obs.LeafUnit, 0, 1)
			}
			return nil
		}
		if !n.leaf {
			if err := visit(n.children[0]); err != nil {
				return err
			}
			return visit(n.children[1])
		}
		return t.evalLeaf(n, q, col, sc)
	}
	for _, rk := range t.rootKeys {
		if err := visit(t.roots[rk]); err != nil {
			return err
		}
	}
	return nil
}

var (
	_ index.Index    = (*Tree)(nil)
	_ index.Inserter = (*Tree)(nil)
	_ heap.Interface = (*nodePQ)(nil)
)
