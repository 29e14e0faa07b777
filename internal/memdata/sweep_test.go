package memdata

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/line"
)

// runSweepScenario drives one memory through a deterministic write /
// idle / fault / wake workload and returns it for state comparison.
func runSweepScenario(t *testing.T, workers int) *Memory {
	t.Helper()
	m, err := New(testLines, core.DefaultConfig(testLines), 7)
	if err != nil {
		t.Fatal(err)
	}
	p := batch.NewPool(workers)
	t.Cleanup(p.Close)
	m.setPool(p)
	if err := m.ExitIdle(0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	now := uint64(0)
	for i := 0; i < 1500; i++ {
		now += 50
		if err := m.Write(uint64(rng.Intn(testLines)), randLine(rng), now); err != nil {
			t.Fatal(err)
		}
	}
	for cycle := 0; cycle < 3; cycle++ {
		now += 1000
		if _, err := m.EnterIdle(now); err != nil {
			t.Fatal(err)
		}
		// Plant real decoder work so screen-failing lines exercise the
		// scalar fallback path too.
		if err := m.IdleFor(5*time.Minute, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		now += 1_000_000
		if err := m.ExitIdle(now); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			now += 50
			addr := uint64(rng.Intn(testLines))
			if rng.Intn(2) == 0 {
				if _, err := m.Read(addr, now); err != nil {
					t.Fatal(err)
				}
			} else if err := m.Write(addr, randLine(rng), now); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// TestSweepDeterministicAcrossWorkerCounts is the seed-determinism
// guard: the sharded sweep must produce bit-identical memory contents,
// spare fields, stats and controller mode state whether it runs on 1, 4
// or 16 workers.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	ref := runSweepScenario(t, 1)
	refWeak := ref.ctl.AppendWeakLines(nil)
	for _, workers := range []int{4, 16} {
		m := runSweepScenario(t, workers)
		if m.Stats() != ref.Stats() {
			t.Fatalf("workers=%d: stats diverged: %+v vs %+v", workers, m.Stats(), ref.Stats())
		}
		for addr := range ref.data {
			if m.data[addr] != ref.data[addr] {
				t.Fatalf("workers=%d: data[%d] diverged", workers, addr)
			}
			if m.spare[addr] != ref.spare[addr] {
				t.Fatalf("workers=%d: spare[%d] diverged", workers, addr)
			}
		}
		weak := m.ctl.AppendWeakLines(nil)
		if len(weak) != len(refWeak) {
			t.Fatalf("workers=%d: %d weak lines, want %d", workers, len(weak), len(refWeak))
		}
		for i := range weak {
			if weak[i] != refWeak[i] {
				t.Fatalf("workers=%d: weak line set diverged at %d", workers, i)
			}
		}
	}
}

// TestEnterIdleZeroAllocs proves the steady-state upgrade sweep is
// allocation-free: after a warm-up cycle has grown the persistent
// buffers, an EnterIdle over thousands of weak lines must not touch the
// heap. Lines are re-weakened between runs outside the measured region.
func TestEnterIdleZeroAllocs(t *testing.T) {
	m, err := New(testLines, core.DefaultConfig(testLines), 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	now := uint64(0)
	weaken := func() {
		if err := m.ExitIdle(now); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < testLines; i++ {
			now += 10
			if err := m.Write(uint64(i), randLine(rng), now); err != nil {
				t.Fatal(err)
			}
		}
		now += 1000
	}
	weaken()
	if _, err := m.EnterIdle(now); err != nil { // warm-up: grows weakBuf
		t.Fatal(err)
	}
	var sweepErr error
	weaken()
	allocs := testing.AllocsPerRun(4, func() {
		if _, err := m.EnterIdle(now); err != nil {
			sweepErr = err
			return
		}
		// Not measured against the sweep budget conceptually, but kept
		// inside so every iteration starts from a fresh weak population.
		weaken()
	})
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	// The weaken() writes churn controller-side map state, so measure the
	// sweep alone too: with everything strong the second call must do
	// nothing and allocate nothing.
	if n := testing.AllocsPerRun(10, func() {
		if _, err := m.EnterIdle(now); err != nil {
			sweepErr = err
			return
		}
		if err := m.ExitIdle(now); err != nil {
			sweepErr = err
		}
		now += 1000
	}); n != 0 {
		t.Fatalf("idle/active cycle with empty sweep allocates %v per run, want 0", n)
	}
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	t.Logf("full sweep cycle (incl. %d re-weakening writes): %.1f allocs/run", testLines, allocs)
}

// TestSweepMatchesUnshardedReference pins the sharded screen-first sweep
// against a straight-line reference: decode every weak line, skip
// uncorrectables, re-encode strong.
func TestSweepMatchesUnshardedReference(t *testing.T) {
	build := func() *Memory {
		m, err := New(2048, core.DefaultConfig(2048), 21)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.ExitIdle(0); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(22))
		now := uint64(0)
		for i := 0; i < 2048; i++ {
			now += 10
			if err := m.Write(uint64(i), randLine(rng), now); err != nil {
				t.Fatal(err)
			}
		}
		// Corrupt a scattering of lines so some screens fail: single-bit
		// (correctable weak) and double-bit (detected-uncorrectable weak)
		// faults.
		for i := 0; i < 2048; i += 64 {
			m.InjectBitFlip(uint64(i), i%line.Bits)
		}
		for i := 32; i < 2048; i += 256 {
			m.InjectBitFlip(uint64(i), 77)
			m.InjectBitFlip(uint64(i), 301)
		}
		return m
	}

	m := build()
	ref := build()
	refWeak := ref.ctl.AppendWeakLines(nil)
	wantUpgraded, wantUncorrectable := uint64(0), uint64(0)
	refData := make([]line.Line, len(ref.data))
	refSpare := make([]uint64, len(ref.spare))
	copy(refData, ref.data)
	copy(refSpare, ref.spare)
	for _, addr := range refWeak {
		fixed, ev := ref.codec.Decode(refData[addr], refSpare[addr])
		if ev.Result.Uncorrectable {
			wantUncorrectable++
			continue
		}
		refData[addr] = fixed
		refSpare[addr] = ref.codec.Encode(fixed, ecc.ModeStrong)
		wantUpgraded++
	}

	now := uint64(40_000)
	if _, err := m.EnterIdle(now); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.UpgradedLines != wantUpgraded || s.Uncorrectable != wantUncorrectable {
		t.Fatalf("sweep counted %d/%d (upgraded/uncorrectable), reference %d/%d",
			s.UpgradedLines, s.Uncorrectable, wantUpgraded, wantUncorrectable)
	}
	if wantUncorrectable == 0 {
		t.Fatal("no uncorrectable lines planted — reference test proved nothing")
	}
	for addr := range refData {
		if m.data[addr] != refData[addr] {
			t.Fatalf("data[%d] differs from reference", addr)
		}
		if m.spare[addr] != refSpare[addr] {
			t.Fatalf("spare[%d] differs from reference", addr)
		}
	}
}
