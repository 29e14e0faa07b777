package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

const testLines = 1 << 16 // small memory for tests: 4 MB

func newActive(t *testing.T, mutate func(*Config)) *Controller {
	t.Helper()
	cfg := DefaultConfig(testLines)
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ExitIdle(0); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig(testLines).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.TotalLines = 0 },
		func(c *Config) { c.DividerBits = -1 },
		func(c *Config) { c.DividerBits = 9 },
		func(c *Config) { c.MDTEntries = 0 },
		func(c *Config) { c.SMDEnabled = true; c.SMDWindowCycles = 0 },
		func(c *Config) { c.UpgradeCyclesPerLine = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(testLines)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestBootStateAllStrongIdle(t *testing.T) {
	c, err := New(DefaultConfig(testLines))
	if err != nil {
		t.Fatal(err)
	}
	if c.Phase() != PhaseIdle {
		t.Errorf("boot phase = %v", c.Phase())
	}
	if got := c.strongMode.count(); got != testLines {
		t.Errorf("strong lines = %d, want all", got)
	}
	if got := c.RefreshDividerBits(); got != 4 {
		t.Errorf("idle divider = %d, want 4 (16x)", got)
	}
	// Reads are illegal while idle.
	if _, err := c.OnRead(0, 0); err == nil {
		t.Error("OnRead in idle: want error")
	}
	if err := c.OnWrite(0, 0); err == nil {
		t.Error("OnWrite in idle: want error")
	}
	if _, err := c.EnterIdle(0); err == nil {
		t.Error("EnterIdle while idle: want error")
	}
}

func TestFirstReadStrongThenWeak(t *testing.T) {
	c := newActive(t, nil)
	out, err := c.OnRead(100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !out.StrongDecode || !out.Downgrade {
		t.Fatalf("first read: %+v, want strong decode + downgrade", out)
	}
	out, err = c.OnRead(100, 20)
	if err != nil {
		t.Fatal(err)
	}
	if out.StrongDecode || out.Downgrade {
		t.Fatalf("second read: %+v, want weak", out)
	}
	s := c.Stats()
	if s.StrongReads != 1 || s.WeakReads != 1 || s.Downgrades != 1 {
		t.Errorf("stats %+v", s)
	}
	if c.IsStrong(100) {
		t.Error("line should be weak after downgrade")
	}
	if got := c.RefreshDividerBits(); got != 0 {
		t.Errorf("active divider = %d, want 0", got)
	}
}

func TestWriteDowngrades(t *testing.T) {
	c := newActive(t, nil)
	if err := c.OnWrite(200, 5); err != nil {
		t.Fatal(err)
	}
	if c.IsStrong(200) {
		t.Error("written line should be weak")
	}
	if got := c.Stats().Downgrades; got != 1 {
		t.Errorf("downgrades = %d", got)
	}
	// Second write: no further downgrade.
	if err := c.OnWrite(200, 6); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Downgrades; got != 1 {
		t.Errorf("downgrades after rewrite = %d", got)
	}
}

func TestEnterIdleUpgradesOnlyTouchedRegionsWithMDT(t *testing.T) {
	c := newActive(t, nil)
	// Touch lines in two distinct regions (64 lines/region here:
	// 65536/1024).
	linesPerRegion := uint64(testLines / 1024)
	if _, err := c.OnRead(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OnRead(5*linesPerRegion+3, 2); err != nil {
		t.Fatal(err)
	}
	if got := c.MDTTrackedRegions(); got != 2 {
		t.Fatalf("tracked regions = %d, want 2", got)
	}
	wantBytes := 2 * linesPerRegion * 64
	if got := c.MDTTrackedBytes(); got != wantBytes {
		t.Errorf("tracked bytes = %d, want %d", got, wantBytes)
	}
	tr, err := c.EnterIdle(1000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.LinesUpgraded != 2 {
		t.Errorf("lines upgraded = %d, want 2", tr.LinesUpgraded)
	}
	if tr.RegionsSwept != 2 {
		t.Errorf("regions swept = %d, want 2", tr.RegionsSwept)
	}
	// Sweep cost covers the two regions, not the whole memory.
	want := 2 * linesPerRegion * 40
	if tr.SweepCycles != want {
		t.Errorf("sweep cycles = %d, want %d", tr.SweepCycles, want)
	}
	if got := c.strongMode.count(); got != testLines {
		t.Errorf("strong lines after upgrade = %d", got)
	}
	// MDT reset after sweep.
	if got := c.MDTTrackedRegions(); got != 0 {
		t.Errorf("MDT not reset: %d", got)
	}
}

func TestEnterIdleWithoutMDTSweepsEverything(t *testing.T) {
	c := newActive(t, func(cfg *Config) { cfg.MDTEnabled = false })
	if _, err := c.OnRead(42, 1); err != nil {
		t.Fatal(err)
	}
	tr, err := c.EnterIdle(100)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SweepCycles != testLines*40 {
		t.Errorf("full sweep cycles = %d, want %d", tr.SweepCycles, testLines*40)
	}
	if tr.LinesUpgraded != 1 {
		t.Errorf("lines upgraded = %d", tr.LinesUpgraded)
	}
}

func TestMDTStorageIs128Bytes(t *testing.T) {
	// One bit per MDT entry: the default table costs the paper's 128 B.
	if got := (DefaultConfig(1<<24).MDTEntries + 7) / 8; got != 128 {
		t.Errorf("MDT storage = %d B, paper says 128 B", got)
	}
}

func TestPaperUpgradeLatency(t *testing.T) {
	// Full 1 GB sweep: 16 M lines x 40 cycles = 640 M cycles = 400 ms at
	// 1.6 GHz (paper Section VI-A).
	cfg := DefaultConfig(1 << 24)
	cfg.MDTEnabled = false
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ExitIdle(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OnRead(0, 1); err != nil {
		t.Fatal(err)
	}
	tr, err := c.EnterIdle(10)
	if err != nil {
		t.Fatal(err)
	}
	// 2^24 lines x 40 cycles = 671 M cycles = 419 ms; the paper's 400 ms
	// figure rounds 2^24 down to 16e6.
	ms := float64(tr.SweepCycles) / 1.6e9 * 1000
	if ms < 390 || ms > 425 {
		t.Errorf("full upgrade = %.0f ms, paper says ≈400 ms", ms)
	}
}

func TestSMDKeepsDowngradeOffForLightTraffic(t *testing.T) {
	c := newActive(t, func(cfg *Config) {
		cfg.SMDEnabled = true
		cfg.SMDWindowCycles = 10_000
	})
	if c.downgradeOn {
		t.Fatal("downgrade should start disabled under SMD")
	}
	if got := c.RefreshDividerBits(); got != 4 {
		t.Errorf("divider with downgrade off = %d, want 4 (slow refresh persists)", got)
	}
	// Light traffic: 10 misses per 10k-cycle window = 1 MPKC < 2.
	now := uint64(0)
	for w := 0; w < 10; w++ {
		for i := 0; i < 10; i++ {
			now += 1000
			out, err := c.OnRead(uint64(i), now)
			if err != nil {
				t.Fatal(err)
			}
			// Reads decode strong but never downgrade.
			if !out.StrongDecode || out.Downgrade {
				t.Fatalf("window %d read %d: %+v", w, i, out)
			}
		}
	}
	if c.downgradeOn {
		t.Error("light traffic enabled downgrade")
	}
	s := c.Stats()
	if s.SMDWindows == 0 || s.SMDEnables != 0 {
		t.Errorf("SMD stats %+v", s)
	}
	if s.Downgrades != 0 {
		t.Error("downgrades happened while disabled")
	}
	// The whole run counts as downgrade-disabled time.
	if s.DowngradeDisabledCycles != s.ActiveCycles || s.ActiveCycles == 0 {
		t.Errorf("disabled=%d active=%d", s.DowngradeDisabledCycles, s.ActiveCycles)
	}
}

func TestSMDEnablesForHeavyTraffic(t *testing.T) {
	c := newActive(t, func(cfg *Config) {
		cfg.SMDEnabled = true
		cfg.SMDWindowCycles = 10_000
	})
	// Heavy traffic: 100 misses in the first window = 10 MPKC > 2.
	now := uint64(0)
	for i := 0; i < 100; i++ {
		now += 100
		if _, err := c.OnRead(uint64(i), now); err != nil {
			t.Fatal(err)
		}
	}
	// Cross the window boundary.
	if _, err := c.OnRead(1000, 10_050); err != nil {
		t.Fatal(err)
	}
	if !c.downgradeOn {
		t.Fatal("heavy traffic did not enable downgrade")
	}
	if got := c.RefreshDividerBits(); got != 0 {
		t.Errorf("divider after enable = %d, want 0", got)
	}
	if got := c.Stats().SMDEnables; got != 1 {
		t.Errorf("SMDEnables = %d", got)
	}
	// Subsequent reads downgrade normally.
	out, err := c.OnRead(2000, 10_100)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Downgrade {
		t.Error("downgrade should happen after SMD enable")
	}
}

func TestSMDResetsAtIdleTransition(t *testing.T) {
	c := newActive(t, func(cfg *Config) {
		cfg.SMDEnabled = true
		cfg.SMDWindowCycles = 1_000
	})
	// Trip the threshold.
	for i := 0; i < 50; i++ {
		if _, err := c.OnRead(uint64(i), uint64(i)*10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.OnRead(999, 1_100); err != nil {
		t.Fatal(err)
	}
	if !c.downgradeOn {
		t.Fatal("setup: downgrade not enabled")
	}
	if _, err := c.EnterIdle(2_000); err != nil {
		t.Fatal(err)
	}
	if err := c.ExitIdle(3_000); err != nil {
		t.Fatal(err)
	}
	if c.downgradeOn {
		t.Error("downgrade should be disabled again after idle")
	}
}

func TestRepeatedIdleActiveCycles(t *testing.T) {
	c := newActive(t, nil)
	now := uint64(0)
	for cycle := 0; cycle < 5; cycle++ {
		for i := uint64(0); i < 100; i++ {
			now += 50
			if _, err := c.OnRead(i*7, now); err != nil {
				t.Fatal(err)
			}
		}
		now += 1000
		tr, err := c.EnterIdle(now)
		if err != nil {
			t.Fatal(err)
		}
		if tr.LinesUpgraded == 0 {
			t.Errorf("cycle %d: nothing upgraded", cycle)
		}
		if got := c.strongMode.count(); got != testLines {
			t.Fatalf("cycle %d: %d strong lines", cycle, got)
		}
		now += tr.SweepCycles
		if err := c.ExitIdle(now); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Sweeps; got != 5 {
		t.Errorf("sweeps = %d", got)
	}
	if err := c.ExitIdle(now); err == nil {
		t.Error("ExitIdle while active: want error")
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseActive.String() != "active" || PhaseIdle.String() != "idle" {
		t.Error("phase strings")
	}
	if Phase(7).String() != "Phase(7)" {
		t.Error("unknown phase string")
	}
}

func TestBitset(t *testing.T) {
	b := newBitset(130)
	if b.len() != 130 {
		t.Fatal("len")
	}
	b.set(0, true)
	b.set(64, true)
	b.set(129, true)
	if !b.get(0) || !b.get(64) || !b.get(129) || b.get(1) {
		t.Error("get/set")
	}
	if b.count() != 3 {
		t.Errorf("count = %d", b.count())
	}
	b.set(64, false)
	if b.count() != 2 || b.get(64) {
		t.Error("clear")
	}
	b.setAll(true)
	if b.count() != 130 {
		t.Errorf("setAll count = %d", b.count())
	}
	b.setAll(false)
	if b.count() != 0 {
		t.Error("clearAll")
	}
}

// Property: after any sequence of reads/writes, the mode table and MDT
// are mutually consistent — every weak line's region is marked, strong
// count plus downgrades-since-sweep equals the total, and a sweep
// restores the all-strong invariant.
func TestControllerInvariantsQuick(t *testing.T) {
	prop := func(ops []uint16, seed int64) bool {
		const lines = 1 << 12
		cfg := DefaultConfig(lines)
		cfg.MDTEntries = 64
		c, err := New(cfg)
		if err != nil {
			return false
		}
		if err := c.ExitIdle(0); err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		weak := map[uint64]bool{}
		now := uint64(0)
		for _, op := range ops {
			now += 50
			addr := uint64(op) % lines
			if rng.Intn(3) == 0 {
				if err := c.OnWrite(addr, now); err != nil {
					return false
				}
			} else if _, err := c.OnRead(addr, now); err != nil {
				return false
			}
			weak[addr] = true
		}
		// Every touched line is weak; untouched lines strong.
		for addr := range weak {
			if c.IsStrong(addr) {
				return false
			}
		}
		if c.strongMode.count() != lines-uint64(len(weak)) {
			return false
		}
		// MDT superset invariant: every weak line's region is marked.
		linesPerRegion := uint64(lines / 64)
		marked := map[uint64]bool{}
		for addr := range weak {
			marked[addr/linesPerRegion] = true
		}
		if c.MDTTrackedRegions() < len(marked) {
			return false
		}
		// Sweep restores all-strong and upgrades exactly the weak set.
		tr, err := c.EnterIdle(now + 1)
		if err != nil {
			return false
		}
		return tr.LinesUpgraded == uint64(len(weak)) && c.strongMode.count() == lines
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
