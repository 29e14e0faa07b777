package memdata

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/line"
)

// patternLine builds a deterministic non-trivial line for an address.
func patternLine(addr uint64) line.Line {
	var l line.Line
	for w := range l {
		l[w] = addr*0x9e3779b97f4a7c15 + uint64(w)*0xbf58476d1ce4e5b9
	}
	return l
}

// writeAllStrong fills every line and upgrades the memory to strong mode
// via the real idle sweep, leaving it idle.
func writeAllStrong(t *testing.T, m *Memory, lines uint64) {
	t.Helper()
	if err := m.ExitIdle(0); err != nil {
		t.Fatal(err)
	}
	for addr := uint64(0); addr < lines; addr++ {
		if err := m.Write(addr, patternLine(addr), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.EnterIdle(2); err != nil {
		t.Fatal(err)
	}
}

// TestFaultPlanGracefulDegradation drives a deterministic, seeded
// schedule of data- and check-bit flips into stored lines and requires
// graceful behavior from the read path: corruption within the strong
// code's correction capability must read back bit-exact, and nothing may
// panic. Faults are capped at t=6 per line so every read is within
// provisioning.
func TestFaultPlanGracefulDegradation(t *testing.T) {
	const lines = 128
	m, err := New(lines, core.DefaultConfig(lines), 1)
	if err != nil {
		t.Fatal(err)
	}
	writeAllStrong(t, m, lines)

	rng := rand.New(rand.NewSource(42))
	perLine := make(map[uint64]int)
	applied := 0
	for i := 0; i < 300; i++ {
		addr := uint64(rng.Int63n(lines))
		bit := rng.Intn(512) // data bits 0..511, check bits from 512 up
		if rng.Intn(2) == 1 {
			bit = 512 + rng.Intn(64)
		}
		if perLine[addr] >= 6 {
			continue
		}
		perLine[addr]++
		m.InjectBitFlip(addr, bit)
		applied++
	}
	if applied < 100 {
		t.Fatalf("plan applied only %d faults", applied)
	}

	if err := m.ExitIdle(3); err != nil {
		t.Fatal(err)
	}
	for addr := uint64(0); addr < lines; addr++ {
		got, err := m.Read(addr, 4)
		if err != nil {
			t.Fatalf("line %d with %d injected faults: %v", addr, perLine[addr], err)
		}
		if got != patternLine(addr) {
			t.Fatalf("line %d: silent corruption after %d faults", addr, perLine[addr])
		}
	}
	if m.Stats().CorrectedBits == 0 {
		t.Error("no bits corrected — faults did not land")
	}
	if m.Stats().Uncorrectable != 0 {
		t.Errorf("unexpected uncorrectable lines: %d", m.Stats().Uncorrectable)
	}
}

// TestUncorrectableIsTypedErrorNotPanic corrupts lines far beyond the
// code's capability and requires the failure to surface as a typed
// ErrDataLoss — never a panic, never silently wrong data presented as
// clean. Weak (downgraded) lines are exercised too: SECDED must correct
// one flip exactly and report two as data loss.
func TestUncorrectableIsTypedErrorNotPanic(t *testing.T) {
	const lines = 16
	m, err := New(lines, core.DefaultConfig(lines), 1)
	if err != nil {
		t.Fatal(err)
	}
	writeAllStrong(t, m, lines)
	if err := m.ExitIdle(3); err != nil {
		t.Fatal(err)
	}

	// Shred line 0: 25 scattered flips across data and check bits.
	rng := rand.New(rand.NewSource(9))
	for _, pos := range rng.Perm(line.Bits + 60)[:25] {
		m.InjectBitFlip(0, pos)
	}
	if _, err := m.Read(0, 4); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("shredded line: err = %v, want ErrDataLoss", err)
	}
	if m.Stats().Uncorrectable != 1 {
		t.Errorf("Uncorrectable = %d, want 1", m.Stats().Uncorrectable)
	}

	// Reading line 1 downgrades it to weak (SECDED); one flip corrects...
	if _, err := m.Read(1, 5); err != nil {
		t.Fatal(err)
	}
	m.InjectBitFlip(1, 100)
	got, err := m.Read(1, 6)
	if err != nil || got != patternLine(1) {
		t.Fatalf("weak line single flip: got err %v", err)
	}
	// ...and two flips are detected data loss, not silent corruption.
	if _, err := m.Read(2, 7); err != nil {
		t.Fatal(err)
	}
	m.InjectBitFlip(2, 100)
	m.InjectBitFlip(2, 301)
	if _, err := m.Read(2, 8); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("weak line double flip: err = %v, want ErrDataLoss", err)
	}

	// The failed lines stay failed on re-read (no state corruption), and
	// healthy neighbors are unaffected.
	if _, err := m.Read(0, 9); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("re-read of shredded line: err = %v, want ErrDataLoss", err)
	}
	for addr := uint64(3); addr < lines; addr++ {
		got, err := m.Read(addr, 10)
		if err != nil || got != patternLine(addr) {
			t.Fatalf("healthy line %d after faults elsewhere: %v", addr, err)
		}
	}
}
