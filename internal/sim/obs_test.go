package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// obsConfig builds the meccsim acceptance configuration (-scale N
// -seed 1) for the given scheme, with SMD on so the decision events
// fire.
func obsConfig(t *testing.T, k SchemeKind, scale int) (workload.Profile, Config) {
	t.Helper()
	prof, err := workload.ByName("libq")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(k, 4_000_000_000/int64(scale))
	cfg.Seed = 1
	cfg.MECC.SMDEnabled = true
	cfg.MECC.SMDWindowCycles /= uint64(scale)
	if cfg.MECC.SMDWindowCycles == 0 {
		cfg.MECC.SMDWindowCycles = 1
	}
	return prof.Scaled(scale), cfg
}

// TestTelemetryDoesNotPerturbResults is the determinism guarantee: a
// run with full telemetry (metrics, event log, sampler) must produce a
// bit-identical Result to the same run with telemetry off. Uses the
// acceptance scale (1/400) unless -short.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	scale := 400
	if testing.Short() {
		scale = 4000
	}
	prof, cfg := obsConfig(t, SchemeMECC, scale)

	base, err := RunBenchmark(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.New()
	elog := obs.NewEventLog()
	rec.SetEventLog(elog)
	sampler, err := obs.NewSampler(cfg.MECC.SMDWindowCycles)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetSampler(sampler)
	cfg.Obs = rec
	r, err := NewRunner(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.RegisterProbes(sampler)
	traced, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	bj, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	tj, err := json.Marshal(traced)
	if err != nil {
		t.Fatal(err)
	}
	if string(bj) != string(tj) {
		t.Errorf("telemetry perturbed the result:\noff: %s\non:  %s", bj, tj)
	}
	if len(elog.Events()) == 0 {
		t.Error("traced run captured no events")
	}
	if len(sampler.Rows()) == 0 {
		t.Error("traced run sampled no rows")
	}
}

// TestTracedRunEmitsExpectedKinds checks that one MECC+SMD slice
// produces the event vocabulary the schema promises: DRAM commands,
// refreshes, decode samples, and the SMD/MECC decision stream.
func TestTracedRunEmitsExpectedKinds(t *testing.T) {
	prof, cfg := obsConfig(t, SchemeMECC, 4000)
	rec := obs.New()
	elog := obs.NewEventLog()
	rec.SetEventLog(elog)
	cfg.Obs = rec
	if _, err := RunBenchmark(prof, cfg); err != nil {
		t.Fatal(err)
	}
	events := elog.Events()
	census := make(map[obs.Kind]uint64)
	for _, e := range events {
		census[e.Kind]++
	}
	for _, k := range []obs.Kind{
		obs.KindDRAMCmd, obs.KindRefresh, obs.KindRefreshRate,
		obs.KindMECCTransition, obs.KindSMDEnable, obs.KindMDTMark,
		obs.KindDecode,
	} {
		if census[k] == 0 {
			t.Errorf("no %s events captured", k)
		}
	}
	// Metric counters must agree with the event census where both exist.
	reg := rec.Registry()
	if got, want := reg.Counter("mecc_smd_enables_total").Value(), census[obs.KindSMDEnable]; got != want {
		t.Errorf("smd enables: counter %d != events %d", got, want)
	}
	if reg.Counter("memctrl_reads_total").Value() == 0 {
		t.Error("memctrl read counter never incremented")
	}
	if reg.Histogram("sim_decode_cycles").Count() == 0 {
		t.Error("decode histogram empty")
	}
}

// TestTimelineShowsSMDIntervals drives a Fig. 14 benchmark (libq,
// MECC with SMD) and checks the timeline renderer reports at least one
// downgrade-enabled interval derived from the SMD decision events.
func TestTimelineShowsSMDIntervals(t *testing.T) {
	prof, cfg := obsConfig(t, SchemeMECC, 4000)
	rec := obs.New()
	elog := obs.NewEventLog()
	elog.SetMask(obs.KindMask(1<<obs.KindSMDEnable | 1<<obs.KindSMDDisable | 1<<obs.KindSMDWindow))
	rec.SetEventLog(elog)
	sampler, err := obs.NewSampler(cfg.MECC.SMDWindowCycles)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetSampler(sampler)
	cfg.Obs = rec
	r, err := NewRunner(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.RegisterProbes(sampler)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MECC == nil || res.MECC.SMDEnables == 0 {
		t.Fatalf("libq must trip SMD at this scale (enables=%v)", res.MECC)
	}
	ivs := obs.DowngradeIntervals(elog.Events(), res.Cycles)
	if len(ivs) == 0 {
		t.Fatal("no downgrade-enabled intervals recovered from events")
	}
	out := obs.NewTimeline(sampler, elog.Events()).String()
	if !strings.Contains(out, "downgrade-enabled intervals:") || strings.Contains(out, "intervals: 0") {
		t.Errorf("timeline does not show SMD intervals:\n%s", out)
	}
}
