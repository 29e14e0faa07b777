package power

import (
	"math"
	"testing"
	"time"

	"repro/internal/dram"
)

func newCalc(t *testing.T) *Calculator {
	t.Helper()
	c, err := NewCalculator(DefaultParams(), dram.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParamsValidation(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.VDD = 0 },
		func(p *Params) { p.IDD0 = -1 },
		func(p *Params) { p.IDD4 = 0 },
		func(p *Params) { p.IDD8 = 0 },
		func(p *Params) { p.IDD2P = -0.1 },
		func(p *Params) { p.SRRefreshFraction = 1.5 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	if _, err := NewCalculator(Params{}, dram.DefaultConfig()); err == nil {
		t.Error("NewCalculator with zero params: want error")
	}
	badCfg := dram.DefaultConfig()
	badCfg.Banks = 3
	if _, err := NewCalculator(DefaultParams(), badCfg); err == nil {
		t.Error("NewCalculator with bad config: want error")
	}
}

func TestIdlePowerMatchesPaperFig8(t *testing.T) {
	c := newCalc(t)
	base := c.IdlePower(0)
	slow := c.IdlePower(4)

	// Baseline idle power is IDD8 * VDD = 2.21 mW.
	if got, want := base.Total(), 1.3*1.7/1000; math.Abs(got-want) > 1e-9 {
		t.Errorf("baseline idle power = %g W, want %g", got, want)
	}
	// Refresh power drops exactly 16x.
	if ratio := slow.RefreshW / base.RefreshW; math.Abs(ratio-1.0/16) > 1e-12 {
		t.Errorf("refresh power ratio = %v, want 1/16", ratio)
	}
	// Background unchanged.
	if slow.BackgroundW != base.BackgroundW {
		t.Error("background power changed with divider")
	}
	// Total idle reduction ≈ 43% (paper: "about 43%", "almost 2X").
	reduction := 1 - slow.Total()/base.Total()
	if reduction < 0.40 || reduction > 0.46 {
		t.Errorf("idle power reduction = %.1f%%, paper ≈ 43%%", reduction*100)
	}
	// Refresh share of baseline idle power is just under half.
	share := base.RefreshW / base.Total()
	if share < 0.40 || share > 0.50 {
		t.Errorf("refresh share = %.2f, want ≈ 0.46", share)
	}
}

func TestReadLineEnergyOrderOfMagnitude(t *testing.T) {
	// The paper cites ~12 nJ per line read; the Table IV parameters give
	// the same order of magnitude (we accept 5-25 nJ).
	c := newCalc(t)
	got := c.ReadLineEnergy() * 1e9
	if got < 5 || got > 25 {
		t.Errorf("read line energy = %.1f nJ, want ~12 nJ", got)
	}
}

func TestEnergyBreakdown(t *testing.T) {
	c := newCalc(t)
	s := dram.Stats{
		NACT:                100,
		NRD:                 200,
		NWR:                 50,
		NREF:                10,
		CyclesActiveStandby: 100_000,
		CyclesPrechargePD:   50_000,
	}
	b := c.Energy(s)
	if b.Total() <= 0 {
		t.Fatal("nonpositive total energy")
	}
	// All components nonnegative.
	for name, v := range map[string]float64{
		"background": b.BackgroundJ, "actpre": b.ActPreJ, "read": b.ReadJ,
		"write": b.WriteJ, "refresh": b.RefreshJ, "selfrefresh": b.SelfRefreshJ,
	} {
		if v < 0 {
			t.Errorf("%s energy negative", name)
		}
	}
	// Energy is linear in command counts.
	s2 := s
	s2.NRD *= 2
	if d := c.Energy(s2).ReadJ / b.ReadJ; math.Abs(d-2) > 1e-12 {
		t.Errorf("read energy not linear: %v", d)
	}
	// Power-down background is much cheaper than active standby.
	sAS := dram.Stats{CyclesActiveStandby: 1_000_000}
	sPD := dram.Stats{CyclesPrechargePD: 1_000_000}
	if c.Energy(sPD).BackgroundJ >= c.Energy(sAS).BackgroundJ/10 {
		t.Error("precharge power-down should be >10x cheaper than active standby")
	}
}

func TestAutoRefreshPower(t *testing.T) {
	c := newCalc(t)
	cfg := dram.DefaultConfig()
	// Distributed auto-refresh at the JEDEC rate, one REF per tREFI: as a
	// power, (100-20) mA * 1.7 V * 14/1560 ≈ 1.22 mW.
	const refs = 1000
	span := refs * float64(cfg.Timing.TREFI) / float64(cfg.ClockHz)
	got := c.Energy(dram.Stats{NREF: refs}).RefreshJ / span
	want := (100 - 20.0) * 1.7 / 1000 * 14 / 1560
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("auto refresh power = %g, want %g", got, want)
	}
}

func TestEnergyOver(t *testing.T) {
	c := newCalc(t)
	idle := c.IdlePower(0)
	activeJ, idleJ := EnergyOver(100*time.Second, 0.95, 0.080, idle)
	if math.Abs(activeJ-0.080*5) > 1e-12 {
		t.Errorf("active energy = %v", activeJ)
	}
	if math.Abs(idleJ-idle.Total()*95) > 1e-12 {
		t.Errorf("idle energy = %v", idleJ)
	}
}

func TestSelfRefreshResidencyEnergy(t *testing.T) {
	c := newCalc(t)
	s := dram.Stats{CyclesSelfRefresh: 200_000_000} // 1 second at 200 MHz
	b := c.Energy(s)
	want := 1.3 * 1.7 / 1000 // IDD8*VDD for 1 s
	if math.Abs(b.SelfRefreshJ-want)/want > 1e-9 {
		t.Errorf("self refresh energy = %g, want %g", b.SelfRefreshJ, want)
	}
}
