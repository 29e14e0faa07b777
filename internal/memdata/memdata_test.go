package memdata

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/line"
	"repro/internal/retention"
)

const testLines = 4096 // 256 KB functional memory for tests

func newMemory(t *testing.T) *Memory {
	t.Helper()
	m, err := New(testLines, core.DefaultConfig(testLines), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ExitIdle(0); err != nil {
		t.Fatal(err)
	}
	return m
}

func randLine(rng *rand.Rand) line.Line {
	var ln line.Line
	for w := range ln {
		ln[w] = rng.Uint64()
	}
	return ln
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, core.DefaultConfig(1), 1); err == nil {
		t.Error("zero lines: want error")
	}
	bad := core.DefaultConfig(testLines)
	bad.DividerBits = -1
	if _, err := New(testLines, bad, 1); err == nil {
		t.Error("bad mecc config: want error")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := newMemory(t)
	rng := rand.New(rand.NewSource(2))
	golden := map[uint64]line.Line{}
	for i := 0; i < 200; i++ {
		addr := uint64(rng.Intn(testLines))
		data := randLine(rng)
		if err := m.Write(addr, data, uint64(i)); err != nil {
			t.Fatal(err)
		}
		golden[addr] = data
	}
	for addr, want := range golden {
		got, err := m.Read(addr, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("addr %d: data mismatch", addr)
		}
	}
	if m.Stats().Uncorrectable != 0 {
		t.Error("unexpected uncorrectable")
	}
	if _, err := m.Read(testLines, 0); err == nil {
		t.Error("out-of-range read: want error")
	}
	if err := m.Write(testLines, line.Line{}, 0); err == nil {
		t.Error("out-of-range write: want error")
	}
}

func TestColdReadDowngradesAndPreservesZero(t *testing.T) {
	m := newMemory(t)
	// Boot state: strong-encoded zeros. First read decodes strong,
	// downgrades, and returns zero.
	got, err := m.Read(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsZero() {
		t.Fatal("cold read returned nonzero data")
	}
	if m.ctl.IsStrong(7) {
		t.Error("line should be weak after demand read")
	}
	if m.Stats().DowngradedLines != 1 {
		t.Errorf("downgrades = %d", m.Stats().DowngradedLines)
	}
}

// TestFullIdleActiveCycleWithFaults is the end-to-end MECC scenario:
// write data, go idle, let retention faults strike at the 1 s-refresh
// BER, wake up, and verify every byte survived.
func TestFullIdleActiveCycleWithFaults(t *testing.T) {
	m := newMemory(t)
	rng := rand.New(rand.NewSource(3))
	golden := make([]line.Line, 512)
	now := uint64(0)
	for i := range golden {
		golden[i] = randLine(rng)
		now += 100
		if err := m.Write(uint64(i), golden[i], now); err != nil {
			t.Fatal(err)
		}
	}
	for cycle := 0; cycle < 4; cycle++ {
		tr, err := m.EnterIdle(now)
		if err != nil {
			t.Fatal(err)
		}
		if tr.LinesUpgraded == 0 && cycle == 0 {
			t.Error("first idle entry upgraded nothing")
		}
		// Stress: inject at 100x the paper's idle BER so every epoch
		// plants real multi-bit work for the decoder.
		if err := m.IdleFor(5*time.Minute, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		now += 1_000_000
		if err := m.ExitIdle(now); err != nil {
			t.Fatal(err)
		}
		for i := range golden {
			now += 10
			got, err := m.Read(uint64(i), now)
			if err != nil {
				t.Fatalf("cycle %d addr %d: %v", cycle, i, err)
			}
			if got != golden[i] {
				t.Fatalf("cycle %d addr %d: data corrupted", cycle, i)
			}
		}
	}
	s := m.Stats()
	if s.InjectedErrors == 0 {
		t.Fatal("no faults injected — test proved nothing")
	}
	if s.CorrectedBits == 0 {
		t.Fatal("no corrections — test proved nothing")
	}
	t.Logf("injected %d errors, corrected %d bits over 4 idle cycles", s.InjectedErrors, s.CorrectedBits)
}

func TestIdleForRequiresIdlePhase(t *testing.T) {
	m := newMemory(t)
	if err := m.IdleFor(time.Minute, time.Second); err == nil {
		t.Error("IdleFor in active phase: want error")
	}
}

func TestUncorrectableSurfacesAsError(t *testing.T) {
	m := newMemory(t)
	rng := rand.New(rand.NewSource(5))
	data := randLine(rng)
	if err := m.Write(3, data, 1); err != nil {
		t.Fatal(err)
	}
	// Corrupt beyond any code's capability: trash half the line. The
	// weak-encoded line cannot recover from this.
	for b := 0; b < 200; b += 2 {
		m.data[3] = m.data[3].FlipBit(b)
	}
	if _, err := m.Read(3, 2); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("err = %v, want ErrDataLoss", err)
	}
	if m.Stats().Uncorrectable != 1 {
		t.Error("uncorrectable not counted")
	}
}

func TestWeakLinesSurviveJEDECRateIdleInjection(t *testing.T) {
	// Sanity on rates: at the 64 ms-refresh BER (1e-9), a 4096-line
	// memory sees essentially no faults.
	m := newMemory(t)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 256; i++ {
		if err := m.Write(uint64(i), randLine(rng), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.EnterIdle(10_000); err != nil {
		t.Fatal(err)
	}
	if err := m.IdleFor(time.Minute, retention.JEDECPeriod); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().InjectedErrors; got > 2 {
		t.Errorf("injected %d errors at JEDEC-rate BER over 256 lines", got)
	}
}

// TestLongRunIntegritySoak puts a larger functional memory through many
// idle/active cycles at the paper's exact idle-mode BER and verifies:
// zero data loss, and a corrected-error count statistically consistent
// with the analytic binomial expectation that Table I is built on.
func TestLongRunIntegritySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak skipped in -short")
	}
	const (
		lines  = 1 << 14 // 1 MB functional memory
		filled = lines / 2
		cycles = 12
	)
	m, err := New(lines, core.DefaultConfig(lines), 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ExitIdle(0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(100))
	golden := make([]line.Line, filled)
	now := uint64(0)
	for i := range golden {
		golden[i] = randLine(rng)
		now += 10
		if err := m.Write(uint64(i), golden[i], now); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < cycles; c++ {
		if _, err := m.EnterIdle(now); err != nil {
			t.Fatal(err)
		}
		if err := m.IdleFor(time.Minute, retention.SlowPeriod); err != nil {
			t.Fatal(err)
		}
		now += 1_000_000
		if err := m.ExitIdle(now); err != nil {
			t.Fatal(err)
		}
		// Touch a random third of the data each active period.
		for i := 0; i < filled/3; i++ {
			addr := uint64(rng.Intn(filled))
			now += 10
			got, err := m.Read(addr, now)
			if err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
			if got != golden[addr] {
				t.Fatalf("cycle %d: corruption at %d", c, addr)
			}
		}
	}
	// Final full verification via reads.
	if _, err := m.EnterIdle(now); err != nil {
		t.Fatal(err)
	}
	if err := m.ExitIdle(now + 1); err != nil {
		t.Fatal(err)
	}
	for i := range golden {
		now += 10
		got, err := m.Read(uint64(i), now)
		if err != nil || got != golden[i] {
			t.Fatalf("final check at %d: err=%v", i, err)
		}
	}
	s := m.Stats()
	// Expected injections: cycles * filled lines * 576 bits * BER.
	want := float64(cycles) * filled * 576 * retention.SlowBitErrorRate
	got := float64(s.InjectedErrors)
	if got < want*0.6 || got > want*1.5 {
		t.Errorf("injected %v errors, expected ≈ %.0f", got, want)
	}
	if s.Uncorrectable != 0 {
		t.Errorf("uncorrectable events: %d", s.Uncorrectable)
	}
	t.Logf("soak: %d injected (expected ≈%.0f), %d corrected, 0 lost",
		s.InjectedErrors, want, s.CorrectedBits)
}
