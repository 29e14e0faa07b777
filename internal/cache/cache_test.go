package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, size, line, assoc int) *Cache {
	t.Helper()
	c, err := New(size, line, assoc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeometryValidation(t *testing.T) {
	cases := []struct{ size, line, assoc int }{
		{0, 64, 8},
		{1 << 20, 0, 8},
		{1 << 20, 64, 0},
		{1000, 64, 8},    // not line-divisible
		{64 * 24, 64, 8}, // 3 sets: not a power of two
	}
	for i, c := range cases {
		if _, err := New(c.size, c.line, c.assoc); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	c := mustCache(t, 1<<20, 64, 8)
	if got := len(c.sets); got != 2048 {
		t.Errorf("1MB/64B/8-way sets = %d, want 2048", got)
	}
}

func TestHitAfterFill(t *testing.T) {
	c := mustCache(t, 1<<20, 64, 8)
	r := c.Access(100, false)
	if r.Hit || r.Fill != 100 || r.WritebackValid {
		t.Fatalf("first access: %+v", r)
	}
	r = c.Access(100, false)
	if !r.Hit {
		t.Fatal("second access should hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats %+v", s)
	}
	if s.MissRate() != 0.5 {
		t.Errorf("miss rate %v", s.MissRate())
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-ish small cache: 2 sets x 2 ways of 64 B lines.
	c := mustCache(t, 256, 64, 2)
	// Fill set 0 (even line addresses map to set 0: addr&1).
	c.Access(0, false) // set 0
	c.Access(2, false) // set 0
	c.Access(0, false) // touch 0: now 2 is LRU
	r := c.Access(4, false)
	if r.Hit {
		t.Fatal("should miss")
	}
	// 2 was LRU and clean: no writeback.
	if r.WritebackValid {
		t.Fatal("clean victim produced writeback")
	}
	if !c.Access(0, false).Hit {
		t.Error("0 should have been retained (MRU)")
	}
	if c.Access(2, false).Hit {
		t.Error("2 should have been evicted (LRU)")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := mustCache(t, 256, 64, 2)
	c.Access(0, true) // dirty
	c.Access(2, false)
	r := c.Access(4, false) // evicts 0 (LRU, dirty)
	if !r.WritebackValid || r.Writeback != 0 {
		t.Fatalf("expected writeback of line 0: %+v", r)
	}
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks = %d", got)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := mustCache(t, 256, 64, 2)
	c.Access(0, false)
	c.Access(0, true) // hit, marks dirty
	c.Access(2, false)
	r := c.Access(4, false)
	if !r.WritebackValid || r.Writeback != 0 {
		t.Fatalf("dirty-on-hit not written back: %+v", r)
	}
}

// Property: cache never holds more distinct lines than its capacity, and
// a working set that fits is fully retained after a warm-up pass.
func TestWorkingSetRetention(t *testing.T) {
	const lines = 1 << 12 / 64 // 64 lines
	c := mustCache(t, 1<<12, 64, 4)
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < lines; i++ {
			c.Access(i, false)
		}
	}
	s := c.Stats()
	// Second pass must be all hits.
	if s.Hits < lines {
		t.Errorf("hits = %d, want >= %d", s.Hits, lines)
	}
	if s.Misses != lines {
		t.Errorf("misses = %d, want %d (cold only)", s.Misses, lines)
	}
}

// Property: an access to line X immediately followed by another access to
// X always hits, regardless of history.
func TestRepeatAccessAlwaysHits(t *testing.T) {
	c := mustCache(t, 1<<14, 64, 8)
	rng := rand.New(rand.NewSource(1))
	prop := func(addrSeed uint32, writes bool) bool {
		// Random interleaving of traffic, then the double access.
		for i := 0; i < 50; i++ {
			c.Access(uint64(rng.Intn(100_000)), rng.Intn(2) == 0)
		}
		x := uint64(addrSeed)
		c.Access(x, writes)
		return c.Access(x, false).Hit
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: total writebacks never exceed total write accesses... (each
// writeback needs a distinct dirtying event).
func TestWritebackConservation(t *testing.T) {
	c := mustCache(t, 1<<10, 64, 2)
	rng := rand.New(rand.NewSource(2))
	writes := uint64(0)
	for i := 0; i < 100_000; i++ {
		w := rng.Intn(3) == 0
		if w {
			writes++
		}
		c.Access(uint64(rng.Intn(4096)), w)
	}
	if got := c.Stats().Writebacks; got > writes {
		t.Errorf("writebacks %d > writes %d", got, writes)
	}
}

func BenchmarkAccess(b *testing.B) {
	c, err := New(1<<20, 64, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 18))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095], i&7 == 0)
	}
}
