package frontier

import (
	"slices"
	"testing"

	"energysssp/internal/graph"
)

// modelQueue is the reference for Partitioned: one plain slice per
// partition, with the same placement, bound, extraction and scan-count
// rules and no blocks.
type modelQueue struct {
	uppers        []graph.Dist
	parts         [][]Entry
	size, scanned int
}

func newModel(first graph.Dist) *modelQueue {
	first = min(max(first, 1), graph.Inf-1)
	return &modelQueue{uppers: []graph.Dist{first, graph.Inf}, parts: make([][]Entry, 2)}
}

func (m *modelQueue) push(v graph.VID, d graph.Dist) {
	i := 0
	for d > m.uppers[i] {
		i++
	}
	m.parts[i] = append(m.parts[i], Entry{v, d})
	m.size++
}

func (m *modelQueue) setBound(i int, b graph.Dist) bool {
	lower := graph.Dist(0)
	if i > 0 && i < len(m.uppers) {
		lower = m.uppers[i-1]
	}
	if i < 0 || i >= len(m.uppers) || b >= m.uppers[i] || b <= lower {
		return false
	}
	m.uppers[i] = b
	if i == len(m.uppers)-1 {
		m.uppers, m.parts = append(m.uppers, graph.Inf), append(m.parts, nil)
	}
	return true
}

func (m *modelQueue) compactFront() {
	for len(m.parts) > 1 && len(m.parts[0]) == 0 {
		m.uppers, m.parts = m.uppers[1:], m.parts[1:]
	}
}

func (m *modelQueue) popBelow(thr graph.Dist, dist []graph.Dist) (out []graph.VID) {
	for i := range m.parts {
		if (i == 0 && thr <= 0) || (i > 0 && m.uppers[i-1] >= thr) {
			break
		}
		m.scanned += len(m.parts[i])
		var keep []Entry
		for _, e := range m.parts[i] {
			switch {
			case dist[e.V] != e.D:
			case e.D <= thr:
				out = append(out, e.V)
			default:
				keep = append(keep, e)
			}
		}
		m.size -= len(m.parts[i]) - len(keep)
		m.parts[i] = keep
	}
	m.compactFront()
	return out
}

// minDist is the smallest fresh distance in the first partition holding a
// fresh entry.
func (m *modelQueue) minDist(dist []graph.Dist) graph.Dist {
	for _, p := range m.parts {
		minD := graph.Inf
		for _, e := range p {
			if dist[e.V] == e.D {
				minD = min(minD, e.D)
			}
		}
		if minD < graph.Inf {
			return minD
		}
	}
	return graph.Inf
}

func (m *modelQueue) freshLen(dist []graph.Dist) (n int) {
	for _, p := range m.parts {
		for _, e := range p {
			if dist[e.V] == e.D {
				n++
			}
		}
	}
	return n
}

// fuzzVertices is the vertex count of the fuzzed distance array; small, so
// pushes repeat vertices and staleness is common.
const fuzzVertices = 64

// Fuzz operations, one per 4-byte group: opcode then three argument bytes.
const (
	opPush = iota
	opPushMany
	opSetDist
	opSetBound
	opPopBelow
	opMinDist
	opCompactFront
	opReset
	numOps
)

// fuzzOps encodes an operation sequence for the seed corpus.
func fuzzOps(first byte, ops ...[4]byte) []byte {
	b := []byte{first}
	for _, op := range ops {
		b = append(b, op[:]...)
	}
	return b
}

// pushMany encodes opPushMany of n copies of vertex v at its current
// distance.
func pushMany(v byte, n int) [4]byte {
	return [4]byte{opPushMany, v, byte(n >> 8), byte(n)}
}

// FuzzPartitionedMatchesModel drives random Push / SetBound / PopBelow /
// MinDist / CompactFront / Reset sequences against modelQueue and requires
// identical PopBelow output (order included), scan counts, Len, partition
// bounds and sizes, and FreshLen after every step. The seeds sit on block
// edges: exactly blockLen entries, a multi-block partition that goes fully
// stale, and exactly blockLen entries kept from two blocks.
func FuzzPartitionedMatchesModel(f *testing.F) {
	// dist[1] = 38, dist[2] = 75 (fuzzDist); the first bound is 101.
	f.Add(fuzzOps(100, pushMany(1, blockLen), [4]byte{opPopBelow, 0, 0, 40}))
	f.Add(fuzzOps(100, pushMany(1, blockLen+3), [4]byte{opSetDist, 1, 0, 9},
		[4]byte{opMinDist}, [4]byte{opPopBelow, 0, 0, 200}, pushMany(1, 2)))
	f.Add(fuzzOps(100, pushMany(1, 500), pushMany(2, blockLen), pushMany(1, 7),
		[4]byte{opPopBelow, 0, 0, 50}, pushMany(2, 1), [4]byte{opPopBelow, 0, 0, 80}))
	f.Add(fuzzOps(10, [4]byte{opSetBound, 1, 0, 60}, [4]byte{opSetBound, 2, 1, 0},
		pushMany(2, 1100), [4]byte{opPush, 3, 0, 0}, [4]byte{opCompactFront},
		[4]byte{opPopBelow, 0, 0, 100}, [4]byte{opReset, 30}, pushMany(1, 3),
		[4]byte{opPopBelow, 255, 255, 255}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dist := make([]graph.Dist, fuzzVertices)
		for v := range dist {
			dist[v] = fuzzDist(v)
		}
		q := NewPartitioned(graph.Dist(data[0]) + 1)
		m := newModel(graph.Dist(data[0]) + 1)
		for step, ops := 0, data[1:]; len(ops) >= 4; step, ops = step+1, ops[4:] {
			op, a, b, c := ops[0]%numOps, ops[1], ops[2], ops[3]
			v := graph.VID(a % fuzzVertices)
			switch op {
			case opPush:
				d := dist[v] + graph.Dist(b%2)*graph.Dist(c) // b odd: stale on insert
				q.Push(v, d)
				m.push(v, d)
			case opPushMany:
				for n := (int(b)<<8 | int(c)) % 2200; n > 0; n-- {
					q.Push(v, dist[v])
					m.push(v, dist[v])
				}
			case opSetDist:
				dist[v] = graph.Dist(b)<<8 | graph.Dist(c)
			case opSetBound:
				i := int(a) % (len(m.uppers) + 1)
				bound := graph.Dist(b)<<8 | graph.Dist(c)
				if got, want := q.SetBound(i, bound) == nil, m.setBound(i, bound); got != want {
					t.Fatalf("step %d: SetBound(%d, %d) ok=%v, model ok=%v", step, i, bound, got, want)
				}
			case opPopBelow:
				thr := graph.Dist(a)<<16 | graph.Dist(b)<<8 | graph.Dist(c)
				if a == 255 {
					thr = graph.Inf
				}
				got, want := q.PopBelow(thr, dist, nil), m.popBelow(thr, dist)
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: PopBelow(%d) = %v, model %v", step, thr, got, want)
				}
			case opMinDist:
				if got, want := q.MinDist(dist), m.minDist(dist); got != want {
					t.Fatalf("step %d: MinDist = %d, model %d", step, got, want)
				}
			case opCompactFront:
				q.CompactFront()
				m.compactFront()
			case opReset:
				q.Reset(graph.Dist(a))
				m = newModel(graph.Dist(a))
			}
			if got, want := q.ScannedAndReset(), m.scanned; got != want {
				t.Fatalf("step %d: scanned %d, model %d", step, got, want)
			}
			m.scanned = 0
			if q.Len() != m.size || q.NumPartitions() != len(m.uppers) {
				t.Fatalf("step %d: Len %d parts %d, model %d parts %d",
					step, q.Len(), q.NumPartitions(), m.size, len(m.uppers))
			}
			for i := range m.uppers {
				if q.Bound(i) != m.uppers[i] || q.PartSize(i) != len(m.parts[i]) {
					t.Fatalf("step %d: partition %d bound %d size %d, model %d size %d",
						step, i, q.Bound(i), q.PartSize(i), m.uppers[i], len(m.parts[i]))
				}
			}
			if got, fresh := q.FreshLen(dist), m.freshLen(dist); got != fresh {
				t.Fatalf("step %d: FreshLen %d, model %d", step, got, fresh)
			}
		}
	})
}

// fuzzDist is vertex v's initial distance in the fuzzed array.
func fuzzDist(v int) graph.Dist { return graph.Dist(v*37%500 + 1) }
