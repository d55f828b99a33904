package bitmap

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestSetBasic(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for i := 0; i < 130; i++ {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Drain(nil); len(got) != 130 {
		t.Fatalf("Drain returned %d bits, want 130", len(got))
	}
}

// Drain must emit word and summary boundaries in ascending order, append
// to the caller's slice, and leave every bit clear.
func TestDrainClears(t *testing.T) {
	b := New(10000)
	idx := []int32{9999, 4096, 0, 63, 4095, 64, 127, 128, 8191, 8192}
	for _, i := range idx {
		b.Set(int(i))
	}
	got := b.Drain([]int32{-1})
	want := []int32{-1, 0, 63, 64, 127, 128, 4095, 4096, 8191, 8192, 9999}
	if len(got) != len(want) {
		t.Fatalf("Drain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain = %v, want %v", got, want)
		}
	}
	for _, i := range idx {
		if b.Get(int(i)) {
			t.Fatalf("bit %d still set after Drain", i)
		}
	}
	if again := b.Drain(nil); len(again) != 0 {
		t.Fatalf("second Drain returned %v, want nothing", again)
	}
}

func TestNewNegative(t *testing.T) {
	b := New(-5)
	if b.Len() != 0 || len(b.Drain(nil)) != 0 {
		t.Fatal("negative-size bitmap should be empty")
	}
}

// Property: after setting an arbitrary multiset of bits, Get agrees with
// membership and Drain counts exactly the distinct indices, in ascending
// order.
func TestSetGetCountProperty(t *testing.T) {
	b := New(1 << 16)
	f := func(raw []uint16) bool {
		seen := map[int]bool{}
		for _, r := range raw {
			b.Set(int(r))
			seen[int(r)] = true
		}
		for i := range seen {
			if !b.Get(i) {
				return false
			}
		}
		got := b.Drain(nil)
		if len(got) != len(seen) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetDrain(b *testing.B) {
	bm := New(1 << 20)
	out := make([]int32, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4096; j++ {
			bm.Set((j * 2654435761) & (1<<20 - 1))
		}
		out = bm.Drain(out[:0])
	}
}
