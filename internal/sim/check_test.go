package sim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/workload"
)

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func failOnViolations(t *testing.T, s *checker.Suite) {
	t.Helper()
	for _, v := range s.Violations() {
		t.Errorf("violation: %s", v)
	}
}

// TestCheckedRunsClean runs every scheme under full invariant checking
// and requires zero violations; it also pins the contract that attaching
// a checker leaves the results bit-identical.
func TestCheckedRunsClean(t *testing.T) {
	prof := mustProfile(t, "gcc")
	for _, k := range []SchemeKind{SchemeBaseline, SchemeSECDED, SchemeECC6, SchemeMECC} {
		plain, err := RunBenchmark(prof.Scaled(4000), DefaultConfig(k, 200_000))
		if err != nil {
			t.Fatalf("%v plain: %v", k, err)
		}
		cfg := DefaultConfig(k, 200_000)
		cfg.Check = checker.NewSuite()
		checked, err := RunBenchmark(prof.Scaled(4000), cfg)
		if err != nil {
			t.Fatalf("%v checked: %v", k, err)
		}
		failOnViolations(t, cfg.Check)
		if err := cfg.Check.Err(); err != nil {
			t.Errorf("%v: %v", k, err)
		}
		if plain.Cycles != checked.Cycles || plain.IPC != checked.IPC ||
			plain.Energy != checked.Energy ||
			plain.Ctrl.RefreshesIssued != checked.Ctrl.RefreshesIssued {
			t.Errorf("%v: checker perturbed results: plain %+v vs checked %+v",
				k, plain, checked)
		}
	}
}

// TestCheckedPhasePattern drives the Fig. 1 active/idle pattern for MECC
// and SECDED under full checking: sweeps, self-refresh dividers, wake-ups
// and the post-idle refresh schedule must all satisfy the invariants.
func TestCheckedPhasePattern(t *testing.T) {
	for _, k := range []SchemeKind{SchemeMECC, SchemeSECDED, SchemeBaseline} {
		cfg := DefaultConfig(k, 0)
		cfg.Check = checker.NewSuite()
		r, err := NewRunner(mustProfile(t, "gcc").Scaled(4000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for phase := 0; phase < 3; phase++ {
			if err := r.RunActive(100_000); err != nil {
				t.Fatalf("%v phase %d active: %v", k, phase, err)
			}
			if err := r.GoIdle(20 * time.Millisecond); err != nil {
				t.Fatalf("%v phase %d idle: %v", k, phase, err)
			}
			if err := r.WakeUp(); err != nil {
				t.Fatalf("%v phase %d wake: %v", k, phase, err)
			}
		}
		r.Result()
		failOnViolations(t, cfg.Check)
	}
}

// TestPostIdleRefreshResync is the regression test for a bug this
// harness uncovered: the controller's nextRefreshAt was never
// resynchronized after a self-refresh idle, so a long idle was followed
// by a storm of catch-up REF commands (measured: 258,960 refreshes in
// ~3.9M active cycles after a 2 s idle, ~100x the JEDEC rate). With the
// wake-up resync the two active phases must issue comparable counts.
func TestPostIdleRefreshResync(t *testing.T) {
	cfg := DefaultConfig(SchemeMECC, 0)
	cfg.Check = checker.NewSuite()
	r, err := NewRunner(mustProfile(t, "gcc").Scaled(4000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunActive(200_000); err != nil {
		t.Fatal(err)
	}
	first := r.ctl.Stats().RefreshesIssued
	if first == 0 {
		t.Fatal("no refreshes in first active phase")
	}
	if err := r.GoIdle(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := r.WakeUp(); err != nil {
		t.Fatal(err)
	}
	if err := r.RunActive(200_000); err != nil {
		t.Fatal(err)
	}
	second := r.ctl.Stats().RefreshesIssued - first
	// The second phase runs the same slice; allow generous slack for
	// the different line-mode mix, but nothing like the 100x storm.
	if second > 4*first+16 {
		t.Errorf("post-idle refresh storm: first phase issued %d, second %d", first, second)
	}
	r.Result()
	failOnViolations(t, cfg.Check)
}

// TestInjectedRefreshDropsAreDetected drives the deterministic
// fault-injection layer through the real controller wiring: dropped
// refreshes are not reported to the tracker, so a drop schedule larger
// than the postponement tolerance must surface as a refresh-ratio
// violation — proving the checker watches the real issue path.
func TestInjectedRefreshDropsAreDetected(t *testing.T) {
	cfg := DefaultConfig(SchemeBaseline, 0)
	cfg.Check = checker.NewSuite()
	r, err := NewRunner(mustProfile(t, "gcc").Scaled(4000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := &checker.FaultPlan{}
	for seq := uint64(0); seq < 30; seq++ {
		plan.Faults = append(plan.Faults, checker.Fault{Kind: checker.DropRefresh, Seq: seq})
	}
	r.InjectRefreshFaults(plan.RefreshFaults())
	if err := r.RunActive(800_000); err != nil {
		t.Fatal(err)
	}
	res := r.Result()
	if res.Ctrl.RefreshesDropped != 30 {
		t.Fatalf("dropped %d refreshes, want 30", res.Ctrl.RefreshesDropped)
	}
	var found bool
	for _, v := range cfg.Check.Violations() {
		if v.Invariant == "refresh-ratio" && strings.Contains(v.Detail, "expected") {
			found = true
		}
	}
	if !found {
		t.Errorf("30 dropped refreshes went undetected; violations: %v",
			cfg.Check.Violations())
	}
}

// TestInjectedRefreshDelaysWithinTolerance checks the other half of the
// contract: a handful of bounded delays stays inside the JEDEC
// postponement tolerance and must NOT trip the checker.
func TestInjectedRefreshDelaysWithinTolerance(t *testing.T) {
	cfg := DefaultConfig(SchemeBaseline, 0)
	cfg.Check = checker.NewSuite()
	r, err := NewRunner(mustProfile(t, "gcc").Scaled(4000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := &checker.FaultPlan{Faults: []checker.Fault{
		{Kind: checker.DelayRefresh, Seq: 2, DelayCycles: 800},
		{Kind: checker.DelayRefresh, Seq: 9, DelayCycles: 1500},
		{Kind: checker.DelayRefresh, Seq: 17, DelayCycles: 400},
	}}
	r.InjectRefreshFaults(plan.RefreshFaults())
	if err := r.RunActive(800_000); err != nil {
		t.Fatal(err)
	}
	r.Result()
	failOnViolations(t, cfg.Check)
}
