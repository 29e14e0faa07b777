package line

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitSetGet(t *testing.T) {
	var ln Line
	for _, i := range []int{0, 1, 63, 64, 100, 511} {
		ln = ln.FlipBit(i)
		if ln.Bit(i) != 1 {
			t.Fatalf("bit %d: want 1", i)
		}
	}
	if got := ln.PopCount(); got != 6 {
		t.Fatalf("PopCount = %d, want 6", got)
	}
	ln = ln.FlipBit(63)
	if ln.Bit(63) != 0 {
		t.Fatal("bit 63: want 0 after clear")
	}
	if got := ln.PopCount(); got != 5 {
		t.Fatalf("PopCount = %d, want 5", got)
	}
}

func TestFlipBit(t *testing.T) {
	var ln Line
	ln = ln.FlipBit(200)
	if ln.Bit(200) != 1 {
		t.Fatal("flip 0->1 failed")
	}
	ln = ln.FlipBit(200)
	if !ln.IsZero() {
		t.Fatal("flip 1->0 failed")
	}
}

func TestDiff(t *testing.T) {
	var a, b Line
	b = b.FlipBit(3).FlipBit(64).FlipBit(511)
	d := a.Diff(b)
	want := []int{3, 64, 511}
	if len(d) != len(want) {
		t.Fatalf("Diff len = %d, want %d", len(d), len(want))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Diff[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestHexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		var ln Line
		for w := range ln {
			ln[w] = rng.Uint64()
		}
		got, err := hex.DecodeString(ln.String())
		if err != nil {
			t.Fatalf("decode %q: %v", ln.String(), err)
		}
		if !bytes.Equal(got, ln.Bytes()) {
			t.Fatalf("round trip mismatch: %x != %x", got, ln.Bytes())
		}
	}
}

// Property: Diff(a,b) positions are exactly the set bits of a XOR b.
func TestDiffMatchesXOR(t *testing.T) {
	f := func(a, b Line) bool {
		d := a.Diff(b)
		var x Line
		for w := range x {
			x[w] = a[w] ^ b[w]
		}
		if len(d) != x.PopCount() {
			return false
		}
		for _, p := range d {
			if x.Bit(p) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkPopCount(b *testing.B) {
	var ln Line
	for w := range ln {
		ln[w] = 0xdeadbeefcafebabe
	}
	for i := 0; i < b.N; i++ {
		_ = ln.PopCount()
	}
}
