// Package frontier provides the work-queue structures of the near-far SSSP
// family: the flat far queue of the Gunrock baseline and the recursively
// partitioned far queue of the paper's self-tuning algorithm (Section 4.6),
// whose partition boundaries shift only monotonically downward.
//
// Entries are lazily deleted: each entry records the vertex distance at
// insertion time, and an entry whose recorded distance no longer matches
// the vertex's current distance is stale and dropped at pop time. Every
// successful relaxation re-enqueues its vertex, so dropping stale entries
// never loses work — this is the invariant that keeps the algorithm correct
// no matter how the delta threshold moves.
package frontier

import (
	"fmt"

	"energysssp/internal/graph"
)

// Entry is a far-queue element: a vertex and its distance at insertion.
type Entry struct {
	V graph.VID
	D graph.Dist
}

// Flat is the baseline's unpartitioned far queue. Extraction scans every
// entry — exactly the cost profile of Gunrock's bisect-far-queue stage.
// A running minimum of the recorded distances is maintained on Push and
// refreshed over the retained entries during every extraction, so MinDist
// is O(1) instead of a second full scan per phase change (the old
// O(n·phases) rescan pathology).
type Flat struct {
	entries []Entry
	// runMin is the smallest recorded distance present in entries
	// (meaningless when empty). Stale entries keep it a lower bound on
	// the true fresh minimum until the next extraction compacts them out.
	runMin graph.Dist
}

// Len reports the number of entries (including not-yet-detected stale ones).
func (q *Flat) Len() int { return len(q.entries) }

// Reset empties the queue, keeping its capacity for reuse.
func (q *Flat) Reset() { q.entries = q.entries[:0] }

// Push appends an entry recorded at distance d.
func (q *Flat) Push(v graph.VID, d graph.Dist) {
	if len(q.entries) == 0 || d < q.runMin {
		q.runMin = d
	}
	q.entries = append(q.entries, Entry{V: v, D: d})
}

// ExtractBelow scans the whole queue, appends to out every fresh vertex
// whose current distance is <= thr, retains fresh entries above the
// threshold, and drops stale entries. It returns the extended out slice and
// the number of entries scanned (the work charged to the simulated
// far-queue kernel).
func (q *Flat) ExtractBelow(thr graph.Dist, dist []graph.Dist, out []graph.VID) ([]graph.VID, int) {
	scanned := len(q.entries)
	keep := q.entries[:0]
	min := graph.Inf
	for _, e := range q.entries {
		cur := dist[e.V]
		if cur != e.D {
			continue // stale
		}
		if cur <= thr {
			out = append(out, e.V)
		} else {
			keep = append(keep, e)
			if e.D < min {
				min = e.D
			}
		}
	}
	q.entries = keep
	q.runMin = min
	return out, scanned
}

// MinDist returns a lower bound on the smallest current distance among
// fresh entries in O(1): the running minimum of the recorded distances,
// which is exact whenever the minimum-achieving entry is still fresh, and
// otherwise undershoots (a stale entry's vertex only ever improved). The
// near-far driver compensates with a jump-and-retry loop: an extraction at
// a threshold covering the bound either yields work or purges the stale
// minimum, tightening the next bound. graph.Inf means the queue is empty.
func (q *Flat) MinDist(dist []graph.Dist) graph.Dist {
	if len(q.entries) == 0 {
		return graph.Inf
	}
	return q.runMin
}

// blockLen is the entry capacity of one far-queue block. With the block's
// count and link, a block is exactly 16 KiB, one Go size class, so no
// allocation rounds up.
const blockLen = 1023

// block is a fixed-size run of far-queue entries, chained per partition.
// Every block of a chain but the last is full.
type block struct {
	e    [blockLen]Entry
	n    int
	next *block
}

// partition holds entries whose insertion distance fell in
// (lower, upper], where lower is the previous partition's upper bound,
// in push order along a chain of blocks (head == nil iff n == 0).
type partition struct {
	upper      graph.Dist
	head, tail *block
	n          int
}

// Partitioned is the paper's recursively partitioned far queue. Partitions
// are ordered by ascending upper bound; the last bound is always graph.Inf.
// Boundary updates only ever decrease a bound ("monotonic boundary
// shifts"), and placement of *new* entries uses the current bounds, while
// existing entries stay put — both exactly as Section 4.6 specifies.
//
// Entries live in fixed-size blocks drawn from the queue's own free list.
// An extraction that empties a block returns it there, and Reset returns
// every block, so a queue reused across solves allocates only when it
// holds more blocks than ever before.
type Partitioned struct {
	parts []partition
	size  int
	// scanned accumulates pop-scan work for kernel accounting.
	scanned int
	free    *block // idle blocks, linked through next
}

// NewPartitioned builds the initial two-partition queue: upper bounds
// firstUpper (the paper initializes this to the average edge weight) and
// graph.Inf.
func NewPartitioned(firstUpper graph.Dist) *Partitioned {
	q := new(Partitioned)
	q.Reset(firstUpper)
	return q
}

// Reset empties the queue into its free list and restores the initial
// two partitions with bounds firstUpper (clamped to [1, graph.Inf-1]) and
// graph.Inf, keeping the blocks and partition table for reuse.
func (q *Partitioned) Reset(firstUpper graph.Dist) {
	if firstUpper < 1 {
		firstUpper = 1
	}
	if firstUpper >= graph.Inf {
		firstUpper = graph.Inf - 1
	}
	for i := range q.parts {
		q.freeChain(q.parts[i].head)
	}
	q.parts = append(q.parts[:0], partition{upper: firstUpper}, partition{upper: graph.Inf})
	q.size, q.scanned = 0, 0
}

// newBlock takes an empty block from the free list, allocating only when
// the list is empty.
func (q *Partitioned) newBlock() *block {
	b := q.free
	if b == nil {
		return new(block)
	}
	q.free = b.next
	b.n, b.next = 0, nil
	return b
}

// freeChain returns the chain starting at b to the free list.
func (q *Partitioned) freeChain(b *block) {
	for b != nil {
		next := b.next
		b.next = q.free
		q.free = b
		b = next
	}
}

// Len reports the number of stored entries (stale ones included until
// detected).
func (q *Partitioned) Len() int { return q.size }

// NumPartitions reports the current number of partitions.
func (q *Partitioned) NumPartitions() int { return len(q.parts) }

// Bound returns the upper bound of partition i.
func (q *Partitioned) Bound(i int) graph.Dist { return q.parts[i].upper }

// PartSize returns the entry count of partition i.
func (q *Partitioned) PartSize(i int) int { return q.parts[i].n }

// lower returns the lower bound of partition i (the previous upper, or 0).
func (q *Partitioned) lower(i int) graph.Dist {
	if i == 0 {
		return 0
	}
	return q.parts[i-1].upper
}

// Push places v (at distance d) into the partition i with
// lower(i) < d <= Bound(i), by binary search over the bounds, appending
// it to the partition's tail block.
func (q *Partitioned) Push(v graph.VID, d graph.Dist) {
	lo, hi := 0, len(q.parts)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d <= q.parts[mid].upper {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	p := &q.parts[lo]
	t := p.tail
	if t == nil || t.n == blockLen {
		b := q.newBlock()
		if t == nil {
			p.head = b
		} else {
			t.next = b
		}
		p.tail, t = b, b
	}
	t.e[t.n] = Entry{V: v, D: d}
	t.n++
	p.n++
	q.size++
}

// SetBound lowers the upper bound of partition i to b. Monotonicity is
// enforced: raising a bound or crossing the neighboring bounds is an error.
// Per the paper, the update affects only future placements; entries already
// stored are untouched (lazy distance checks at pop keep this correct).
func (q *Partitioned) SetBound(i int, b graph.Dist) error {
	if i < 0 || i >= len(q.parts) {
		return fmt.Errorf("frontier: partition %d out of range", i)
	}
	if b >= q.parts[i].upper {
		return fmt.Errorf("frontier: boundary update must decrease (%d -> %d)", q.parts[i].upper, b)
	}
	if b <= q.lower(i) {
		return fmt.Errorf("frontier: boundary %d would cross lower bound %d", b, q.lower(i))
	}
	wasLast := i == len(q.parts)-1
	q.parts[i].upper = b
	if wasLast {
		// The updated bound belonged to the last partition: append a
		// fresh unbounded partition, as Section 4.6 prescribes.
		q.parts = append(q.parts, partition{upper: graph.Inf})
	}
	return nil
}

// CompactFront removes empty leading partitions ("if the size of the
// current partition is zero, the next partition becomes the current
// partition"), always retaining at least one partition (the unbounded
// tail).
func (q *Partitioned) CompactFront() {
	i := 0
	for i < len(q.parts)-1 && q.parts[i].n == 0 {
		i++
	}
	if i > 0 {
		q.parts = append(q.parts[:0], q.parts[i:]...)
	}
}

// PopBelow extracts every fresh vertex with current distance <= thr,
// appending to out. Only partitions whose lower bound is below thr are
// scanned — the pay-off of partitioning over the baseline's full scan.
// Fresh entries above thr are kept in their original order, compacted
// toward the head of their chain; stale entries are dropped, and blocks
// left empty go back to the free list.
func (q *Partitioned) PopBelow(thr graph.Dist, dist []graph.Dist, out []graph.VID) []graph.VID {
	for i := 0; i < len(q.parts); i++ {
		if q.lower(i) >= thr {
			break
		}
		p := &q.parts[i]
		q.scanned += p.n
		// The write cursor (w, k) trails the read cursor, so kept
		// entries overwrite only slots already read.
		w, k, kept := p.head, 0, 0
		for r := p.head; r != nil; r = r.next {
			for _, e := range r.e[:r.n] {
				cur := dist[e.V]
				if cur != e.D {
					continue // stale
				}
				if cur <= thr {
					out = append(out, e.V)
					continue
				}
				if k == blockLen {
					w, k = w.next, 0
				}
				w.e[k] = e
				k++
				kept++
			}
		}
		if kept > 0 {
			// Every block before w is full; w holds k entries.
			w.n = k
			q.freeChain(w.next)
			w.next = nil
			p.tail = w
		} else {
			q.freeChain(p.head)
			p.head, p.tail = nil, nil
		}
		q.size -= p.n - kept
		p.n = kept
	}
	q.CompactFront()
	return out
}

// MinDist returns the smallest current distance among fresh entries
// (scanning from the front and stopping at the first partition that yields
// one, since partitions are distance-ordered for fresh entries), or
// graph.Inf when no fresh entry exists.
func (q *Partitioned) MinDist(dist []graph.Dist) graph.Dist {
	for i := range q.parts {
		min := graph.Inf
		for b := q.parts[i].head; b != nil; b = b.next {
			for _, e := range b.e[:b.n] {
				if dist[e.V] == e.D && e.D < min {
					min = e.D
				}
			}
		}
		if min < graph.Inf {
			return min
		}
	}
	return graph.Inf
}

// ScannedAndReset returns the number of entries scanned by PopBelow since
// the last call and resets the counter; the solver charges this to the
// simulated far-queue kernel.
func (q *Partitioned) ScannedAndReset() int {
	s := q.scanned
	q.scanned = 0
	return s
}

// FreshLen counts entries that are still fresh under dist. O(size); used by
// tests and termination assertions, not hot paths.
func (q *Partitioned) FreshLen(dist []graph.Dist) int {
	n := 0
	for i := range q.parts {
		for b := q.parts[i].head; b != nil; b = b.next {
			for _, e := range b.e[:b.n] {
				if dist[e.V] == e.D {
					n++
				}
			}
		}
	}
	return n
}
