package dram

import "testing"

// TestMaskOf pins the wrap guard of the decode-mask helper: an empty
// count must produce an empty mask, not 2^64-1 (which would turn every
// address into a huge bogus index).
func TestMaskOf(t *testing.T) {
	cases := []struct{ n, want uint64 }{
		{0, 0},
		{1, 0},
		{2, 1},
		{8, 7},
		{1 << 32, 1<<32 - 1},
	}
	for _, c := range cases {
		if got := maskOf(c.n); got != c.want {
			t.Errorf("maskOf(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}
