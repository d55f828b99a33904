package analysis

import (
	"strings"
	"testing"
)

func TestHotEscapeAppendGrowthInLoop(t *testing.T) {
	src := `package a

//hot:alloc-free
func gather(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x) // line 7: unbounded growth on the hot path
	}
	return out
}

//hot:alloc-free
func gatherPresized(xs []int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		out = append(out, x) // pre-sized: amortized to zero
	}
	return out
}

//hot:alloc-free
func compact(xs []int) []int {
	keep := xs[:0]
	for _, x := range xs {
		if x > 0 {
			keep = append(keep, x) // [:0] reuse: in-place
		}
	}
	return keep
}

func cold(xs []int) []int { // unmarked: not the rule's business
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}
`
	p := singleFixture(t, src)
	fs := runRule(t, &HotEscape{}, p)
	expectLines(t, fs, 7)
	if !strings.Contains(fs[0].Message, "append to out") {
		t.Fatalf("message should name the growing slice: %s", fs[0].Message)
	}
}

func TestHotEscapeKernelBankedBufferAllowed(t *testing.T) {
	src := `package a

import "example.com/fix/internal/parallel"

type eng struct{ bufs [][]int }

func (e *eng) run(p *parallel.Pool, n int) {
	p.For(n, func(lo, hi int) {
		buf := e.bufs[0]
		for i := lo; i < hi; i++ {
			buf = append(buf, i) // banked back below: steady-state capacity
		}
		e.bufs[0] = buf
	})
	p.For(n, func(lo, hi int) {
		var buf []int
		for i := lo; i < hi; i++ {
			buf = append(buf, i) // line 18: fresh slice grows on every call
		}
		_ = buf
	})
}
`
	p := poolFixture(t, src)
	fs := runRule(t, &HotEscape{}, p)
	expectLines(t, fs, 18)
}

// The lazy far queue's Push appends to a pair of parallel SoA slabs (vertex
// ids and recorded distances) selected by bucket index, banking both back to
// the queue — the structure-of-arrays variant of the banked-buffer idiom.
// Both slabs must be recognized as amortized; forgetting to bank one of the
// pair is exactly the regression the rule exists to catch.
func TestHotEscapeKernelSoASlabPair(t *testing.T) {
	src := `package a

import "example.com/fix/internal/parallel"

type lazyQ struct {
	vids  [][]int
	dists [][]int
}

func (q *lazyQ) drain(p *parallel.Pool, n int) {
	p.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := i % len(q.vids)
			vb, db := q.vids[s], q.dists[s]
			vb = append(vb, i)
			db = append(db, i*2)
			q.vids[s] = vb
			q.dists[s] = db
		}
	})
	p.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := i % len(q.vids)
			vb, db := q.vids[s], q.dists[s]
			vb = append(vb, i)
			db = append(db, i*2) // line 26: db never banked back
			q.vids[s] = vb
		}
	})
}
`
	p := poolFixture(t, src)
	fs := runRule(t, &HotEscape{}, p)
	expectLines(t, fs, 26)
	if !strings.Contains(fs[0].Message, "append to db") {
		t.Fatalf("message should name the unbanked slab: %s", fs[0].Message)
	}
}

func TestHotEscapeLoopClosureCapture(t *testing.T) {
	src := `package a

//hot:alloc-free
func handlers(xs []int) []func() int {
	out := make([]func() int, 0, len(xs))
	for _, x := range xs {
		x := x
		out = append(out, func() int { return x }) // line 8: escaping capture
	}
	return out
}

//hot:alloc-free
func inline(xs []int) int {
	s := 0
	for _, x := range xs {
		s += func() int { return x }() // invoked on the spot: no closure object
	}
	return s
}
`
	p := singleFixture(t, src)
	fs := runRule(t, &HotEscape{}, p)
	expectLines(t, fs, 8)
	if !strings.Contains(fs[0].Message, "captures x") {
		t.Fatalf("message should name the captured variable: %s", fs[0].Message)
	}
}

func TestHotEscapeIgnoreDirective(t *testing.T) {
	src := `package a

//hot:alloc-free
func slowInit(xs []int) []int {
	var out []int
	for _, x := range xs {
		//lint:ignore hotescape one-time setup, measured alloc-free in steady state
		out = append(out, x)
	}
	return out
}
`
	p := singleFixture(t, src)
	expectLines(t, runRule(t, &HotEscape{}, p))
}
