// Package bitmap implements a fixed-size two-level bitmap that the SSSP
// filter stage uses to deduplicate updated vertices and emit them in
// ascending order (the flag-array dedup a stepping framework runs after its
// relax pass). It is not safe for concurrent use: the filter runs it on one
// goroutine, after the advance workers have joined.
package bitmap

import "math/bits"

const wordBits = 64

// Bitmap is a set of n bits. Besides one word per 64 bits it keeps one
// summary bit per word, set when the word may be non-zero, so Drain visits
// only the words that hold set bits. The zero value is an empty bitmap of
// size 0; construct with New.
type Bitmap struct {
	words   []uint64
	summary []uint64
	n       int
}

// New returns a bitmap holding n bits, all clear.
func New(n int) *Bitmap {
	if n < 0 {
		n = 0
	}
	nw := (n + wordBits - 1) / wordBits
	return &Bitmap{
		words:   make([]uint64, nw),
		summary: make([]uint64, (nw+wordBits-1)/wordBits),
		n:       n,
	}
}

// Len reports the number of bits in the bitmap.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	w := i / wordBits
	b.words[w] |= 1 << uint(i%wordBits)
	b.summary[w/wordBits] |= 1 << uint(w%wordBits)
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Drain appends the index of every set bit to dst in ascending order,
// clears the bitmap, and returns the extended slice. It costs one step per
// 4096 bits of capacity plus one per set bit.
func (b *Bitmap) Drain(dst []int32) []int32 {
	for si, s := range b.summary {
		if s == 0 {
			continue
		}
		b.summary[si] = 0
		for s != 0 {
			wi := si*wordBits + bits.TrailingZeros64(s)
			s &= s - 1
			w := b.words[wi]
			b.words[wi] = 0
			base := int32(wi * wordBits)
			for w != 0 {
				dst = append(dst, base+int32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	}
	return dst
}
