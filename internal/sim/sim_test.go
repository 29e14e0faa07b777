package sim

import (
	"math"
	"testing"

	"repro/internal/dram"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testScale shrinks the paper's 4e9-instruction slices for unit tests.
const (
	testScale  = 2000
	testInstrs = 4_000_000_000 / testScale
)

func runOne(t *testing.T, bench string, k SchemeKind, mutate func(*Config)) Result {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(k, testInstrs)
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := RunBenchmark(prof.Scaled(testScale), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParseScheme(t *testing.T) {
	for _, s := range []string{"baseline", "none", "secded", "ecc1", "ecc6", "strong", "mecc"} {
		if _, err := ParseScheme(s); err != nil {
			t.Errorf("ParseScheme(%q): %v", s, err)
		}
	}
	if _, err := ParseScheme("nope"); err == nil {
		t.Error("want error")
	}
	if SchemeMECC.String() != "MECC" || SchemeECC6.String() != "ECC-6" {
		t.Error("scheme strings")
	}
	if SchemeKind(9).String() != "SchemeKind(9)" {
		t.Error("unknown scheme string")
	}
}

func TestBaselineRunBasics(t *testing.T) {
	res := runOne(t, "gcc", SchemeBaseline, nil)
	if res.Instructions < testInstrs {
		t.Errorf("instructions = %d, want >= %d", res.Instructions, testInstrs)
	}
	if res.IPC <= 0 || res.IPC > 2 {
		t.Errorf("IPC = %v", res.IPC)
	}
	// Measured MPKI tracks the profile (6.2 for gcc).
	if math.Abs(res.MPKI-6.2)/6.2 > 0.15 {
		t.Errorf("MPKI = %v, want ≈ 6.2", res.MPKI)
	}
	if res.DRAM.NRD == 0 || res.DRAM.NACT == 0 || res.DRAM.NWR == 0 {
		t.Errorf("no DRAM activity: %+v", res.DRAM)
	}
	if res.TotalEnergyJ() <= 0 || res.ActivePowerW <= 0 || res.EDP <= 0 {
		t.Error("energy metrics not computed")
	}
	// Memory latency should be sane: tens to ~200 CPU cycles.
	if res.AvgReadLatencyCPU < 40 || res.AvgReadLatencyCPU > 300 {
		t.Errorf("avg read latency = %v CPU cycles", res.AvgReadLatencyCPU)
	}
	if res.MECC != nil {
		t.Error("baseline should have no MECC stats")
	}
}

func TestSchemeOrderingMemoryBound(t *testing.T) {
	// For a memory-bound benchmark (libq): baseline >= SECDED > ECC-6,
	// and MECC lands close to SECDED (paper Figs. 3 and 7).
	base := runOne(t, "libq", SchemeBaseline, nil)
	sec := runOne(t, "libq", SchemeSECDED, nil)
	e6 := runOne(t, "libq", SchemeECC6, nil)
	mecc := runOne(t, "libq", SchemeMECC, nil)

	nSec := sec.IPC / base.IPC
	nE6 := e6.IPC / base.IPC
	nMECC := mecc.IPC / base.IPC

	if nSec < 0.97 || nSec > 1.0001 {
		t.Errorf("SECDED normalized IPC = %.3f, want ≈ 0.99", nSec)
	}
	// libquantum is the paper's worst case: ~21% slowdown for ECC-6.
	if nE6 > 0.85 || nE6 < 0.70 {
		t.Errorf("ECC-6 normalized IPC = %.3f, paper ≈ 0.79", nE6)
	}
	if nMECC < nE6 {
		t.Errorf("MECC (%.3f) should beat ECC-6 (%.3f)", nMECC, nE6)
	}
	if nMECC < 0.93 {
		t.Errorf("MECC normalized IPC = %.3f, want within a few %% of baseline", nMECC)
	}
	if mecc.MECC == nil || mecc.MECC.Downgrades == 0 {
		t.Error("MECC stats missing or no downgrades")
	}
}

func TestSchemeOrderingComputeBound(t *testing.T) {
	// For a compute-bound benchmark (povray), even ECC-6 hardly matters.
	base := runOne(t, "povray", SchemeBaseline, nil)
	e6 := runOne(t, "povray", SchemeECC6, nil)
	if n := e6.IPC / base.IPC; n < 0.97 {
		t.Errorf("ECC-6 normalized IPC on povray = %.3f, want ≈ 1", n)
	}
}

func TestMECCDowngradeOncePerLine(t *testing.T) {
	res := runOne(t, "libq", SchemeMECC, nil)
	// Strong decodes happen only on first touch: they are bounded by the
	// (scaled) footprint in lines, with a little slack for region edge
	// effects.
	footLines := uint64(34*1024/testScale*1024/64) * 2
	if footLines < 1024 {
		footLines = 40_000
	}
	if res.MECC.StrongReads > res.MECC.WeakReads {
		t.Errorf("strong reads (%d) exceed weak reads (%d): downgrade not sticking",
			res.MECC.StrongReads, res.MECC.WeakReads)
	}
	if res.MECC.Downgrades == 0 {
		t.Error("no downgrades")
	}
}

func TestDecodeLatencySensitivity(t *testing.T) {
	// Fig. 12: ECC-6 degrades with decode latency, MECC barely moves.
	e615 := runOne(t, "libq", SchemeECC6, func(c *Config) { c.StrongDecodeCycles = 15 })
	e660 := runOne(t, "libq", SchemeECC6, func(c *Config) { c.StrongDecodeCycles = 60 })
	if e660.IPC >= e615.IPC {
		t.Errorf("ECC-6 IPC should fall with latency: %v vs %v", e615.IPC, e660.IPC)
	}
	m15 := runOne(t, "libq", SchemeMECC, func(c *Config) { c.StrongDecodeCycles = 15 })
	m60 := runOne(t, "libq", SchemeMECC, func(c *Config) { c.StrongDecodeCycles = 60 })
	dropECC := 1 - e660.IPC/e615.IPC
	dropMECC := 1 - m60.IPC/m15.IPC
	if dropMECC > dropECC/2 {
		t.Errorf("MECC latency sensitivity (%.3f) should be far below ECC-6's (%.3f)", dropMECC, dropECC)
	}
}

func TestCheckpoints(t *testing.T) {
	res := runOne(t, "gcc", SchemeMECC, func(c *Config) {
		c.CheckpointEvery = testInstrs / 4
	})
	if len(res.Checkpoints) < 3 {
		t.Fatalf("checkpoints = %d", len(res.Checkpoints))
	}
	for i := 1; i < len(res.Checkpoints); i++ {
		if res.Checkpoints[i].Instructions <= res.Checkpoints[i-1].Instructions {
			t.Error("checkpoints not increasing")
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := runOne(t, "sphinx", SchemeMECC, nil)
	b := runOne(t, "sphinx", SchemeMECC, nil)
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions || a.DRAM != b.DRAM {
		t.Error("same seed produced different results")
	}
}

func TestBadSchemeConfig(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeKind(0), 1000)
	if _, err := RunBenchmark(prof, cfg); err == nil {
		t.Error("invalid scheme: want error")
	}
}

func TestRefreshesHappenDuringRun(t *testing.T) {
	res := runOne(t, "povray", SchemeBaseline, nil)
	// povray runs ~1.3M cycles at scale 2000... refreshes every 12480
	// CPU cycles: expect plenty.
	if res.DRAM.NREF == 0 {
		t.Error("no refreshes during active run")
	}
}

func TestRunnerWithExternalSource(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prof = prof.Scaled(testScale)
	// Materialize a short trace from the generator, replay it, and
	// verify it matches a direct run over the same stream.
	gen, err := workload.NewGenerator(prof, 1<<24, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, 5000)
	for i := range recs {
		recs[i], _ = gen.Next()
	}
	cfg := DefaultConfig(SchemeSECDED, testInstrs)
	r, err := NewRunnerWithSource(prof, trace.NewSliceSource(recs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Error("no progress replaying external trace")
	}
	// Every read in the trace was serviced.
	var wantReads uint64
	for _, rec := range recs {
		if rec.Op == trace.OpRead {
			wantReads++
		}
	}
	if res.Ctrl.ReadsEnqueued != wantReads {
		t.Errorf("reads = %d, want %d", res.Ctrl.ReadsEnqueued, wantReads)
	}
}

func TestDualRankSimulation(t *testing.T) {
	// A 2-rank (2 GB) channel runs the same workload correctly; the
	// extra rank's standby power shows up in the energy model.
	prof, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	oneRank := DefaultConfig(SchemeMECC, testInstrs/2)
	twoRank := DefaultConfig(SchemeMECC, testInstrs/2)
	twoRank.DRAM.Ranks = 2
	r1, err := RunBenchmark(prof.Scaled(testScale), oneRank)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBenchmark(prof.Scaled(testScale), twoRank)
	if err != nil {
		t.Fatal(err)
	}
	if r2.IPC <= 0 {
		t.Fatal("dual-rank run made no progress")
	}
	// IPC should be comparable (same workload intensity; more bank
	// parallelism can only help a little with one outstanding read).
	if r2.IPC < r1.IPC*0.9 {
		t.Errorf("dual-rank IPC %.3f far below single-rank %.3f", r2.IPC, r1.IPC)
	}
	// Double the ranks => roughly double the background energy.
	bg1 := r1.Energy.BackgroundJ / float64(r1.Cycles)
	bg2 := r2.Energy.BackgroundJ / float64(r2.Cycles)
	if bg2 < bg1*1.7 || bg2 > bg1*2.3 {
		t.Errorf("background power ratio = %.2f, want ≈ 2", bg2/bg1)
	}
}

func TestFullRunPassesTimingAudit(t *testing.T) {
	prof, err := workload.ByName("zeusmp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeMECC, testInstrs/2)
	r, err := NewRunner(prof.Scaled(testScale), cfg)
	if err != nil {
		t.Fatal(err)
	}
	auditor := dram.NewAuditor(cfg.DRAM)
	r.ch.SetAuditor(auditor)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if auditor.Len() == 0 {
		t.Fatal("no commands recorded")
	}
	if err := auditor.Validate(); err != nil {
		t.Fatalf("timing audit over %d commands: %v", auditor.Len(), err)
	}
}

func TestNextLinePrefetcher(t *testing.T) {
	// Streaming libq: the next-line prefetcher converts most demand
	// reads into buffer hits and lifts IPC; random omnetpp barely moves.
	run := func(bench string, pf bool) Result {
		prof, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(SchemeBaseline, testInstrs/2)
		cfg.NextLinePrefetch = pf
		res, err := RunBenchmark(prof.Scaled(testScale), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run("libq", false)
	pf := run("libq", true)
	if base.PrefetchHits != 0 {
		t.Error("hits counted with prefetcher off")
	}
	hitRate := float64(pf.PrefetchHits) / float64(pf.Instructions) * 1000 / pf.MPKI
	if hitRate < 0.7 {
		t.Errorf("libq prefetch hit rate = %.2f, want > 0.7", hitRate)
	}
	if pf.IPC < base.IPC*1.15 {
		t.Errorf("prefetch IPC %.3f, want >= 1.15x base %.3f", pf.IPC, base.IPC)
	}
	// Random traffic: no harm.
	ob := run("omnetpp", false)
	op := run("omnetpp", true)
	if op.IPC < ob.IPC*0.95 {
		t.Errorf("prefetcher hurt omnetpp: %.3f vs %.3f", op.IPC, ob.IPC)
	}
}

// BenchmarkSimulatorThroughput reports the simulator's own speed in
// instructions per second of host time, for the README's scale guidance.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prof = prof.Scaled(400)
	const instrs = 2_000_000
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(SchemeMECC, instrs)
		cfg.Seed = int64(i + 1)
		res, err := RunBenchmark(prof, cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Instructions
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim-instrs/sec")
}
