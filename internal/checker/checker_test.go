package checker

import (
	"errors"
	"strings"
	"testing"
)

// has reports whether the suite recorded a violation of the named
// invariant whose detail contains frag.
func has(t *testing.T, s *Suite, invariant, frag string) bool {
	t.Helper()
	for _, v := range s.Violations() {
		if v.Invariant == invariant && strings.Contains(v.Detail, frag) {
			return true
		}
	}
	return false
}

func TestSuiteErr(t *testing.T) {
	s := NewSuite()
	if err := s.Err(); err != nil {
		t.Fatalf("empty suite: %v", err)
	}
	s.Report("refresh-ratio", 42, "planted %d", 1)
	if err := s.Err(); !errors.Is(err, ErrInvariant) {
		t.Fatalf("Err = %v, want ErrInvariant", err)
	}
	var nilSuite *Suite
	nilSuite.Report("x", 0, "ignored")
	if nilSuite.Err() != nil || nilSuite.Violations() != nil {
		t.Fatal("nil suite must be inert")
	}
}

func TestSuiteOnViolation(t *testing.T) {
	s := NewSuite()
	var fired []Violation
	s.SetOnViolation(func(v Violation) {
		fired = append(fired, v)
		// The callback runs outside the lock, so re-entering the suite
		// must not deadlock.
		_ = s.Violations()
	})
	s.Report("refresh-ratio", 7, "planted")
	if len(fired) != 1 || fired[0].Invariant != "refresh-ratio" || fired[0].At != 7 {
		t.Fatalf("callback fired = %+v, want one refresh-ratio@7", fired)
	}
	for i := 0; i < maxViolations+5; i++ {
		s.Report("spam", uint64(i), "v%d", i)
	}
	if len(fired) != maxViolations {
		t.Fatalf("callback fired %d times, want %d (drops must not fire)", len(fired), maxViolations)
	}
	s.SetOnViolation(nil)
	var nilSuite *Suite
	nilSuite.SetOnViolation(func(Violation) { t.Fatal("nil suite fired callback") })
	nilSuite.Report("x", 0, "ignored")
}

func TestSuiteRetentionCap(t *testing.T) {
	s := NewSuite()
	for i := 0; i < maxViolations+10; i++ {
		s.Report("spam", uint64(i), "v%d", i)
	}
	if got := len(s.Violations()); got != maxViolations {
		t.Fatalf("retained %d violations, want %d", got, maxViolations)
	}
}

// --- refresh-ratio ---

func TestRefreshTrackerCleanSpan(t *testing.T) {
	s := NewSuite()
	tr := NewRefreshTracker(s, 100, 8, false, 8, true)
	for i := uint64(1); i <= 100; i++ {
		tr.OnRefresh(i*100, -1)
	}
	tr.Finish(10_000)
	if err := s.Err(); err != nil {
		t.Fatalf("clean span flagged: %v", err)
	}
}

func TestRefreshTrackerDetectsDeficit(t *testing.T) {
	s := NewSuite()
	tr := NewRefreshTracker(s, 100, 8, false, 8, true)
	// 10_000 cycles at interval 100 expect 100 refreshes (tolerance 10);
	// plant a schedule that dropped half of them.
	for i := uint64(1); i <= 50; i++ {
		tr.OnRefresh(i*100, -1)
	}
	tr.Finish(10_000)
	if !has(t, s, "refresh-ratio", "issued 50") {
		t.Fatalf("deficit not flagged: %v", s.Violations())
	}
}

func TestRefreshTrackerDetectsSurplus(t *testing.T) {
	s := NewSuite()
	tr := NewRefreshTracker(s, 100, 8, false, 8, true)
	// A post-idle catch-up storm: 400 refreshes in a 10_000-cycle span.
	for i := uint64(0); i < 400; i++ {
		tr.OnRefresh(i*25, -1)
	}
	tr.Finish(10_000)
	if !has(t, s, "refresh-ratio", "issued 400") {
		t.Fatalf("surplus not flagged: %v", s.Violations())
	}
}

func TestRefreshTrackerExcludesAdvances(t *testing.T) {
	s := NewSuite()
	tr := NewRefreshTracker(s, 100, 8, false, 8, true)
	// 5_000 stepped cycles with the right 50 refreshes, then a 1M-cycle
	// fast-forward that the controller never stepped across.
	for i := uint64(1); i <= 50; i++ {
		tr.OnRefresh(i*100, -1)
	}
	tr.OnAdvance(1_005_000, 1_000_000, false, 0)
	tr.Finish(1_005_000)
	if err := s.Err(); err != nil {
		t.Fatalf("excluded advance misaccounted: %v", err)
	}
}

func TestRefreshTrackerShiftSpans(t *testing.T) {
	s := NewSuite()
	tr := NewRefreshTracker(s, 100, 8, false, 8, true)
	// Span 1 at shift 0: 100 refreshes over 10_000 cycles — clean.
	for i := uint64(1); i <= 100; i++ {
		tr.OnRefresh(i*100, -1)
	}
	tr.OnShift(10_000, 4)
	// Span 2 at shift 4 (interval 1600): keep refreshing at the fast
	// rate — 100 refreshes where ~6 are expected.
	for i := uint64(1); i <= 100; i++ {
		tr.OnRefresh(10_000+i*100, -1)
	}
	tr.Finish(20_000)
	if !has(t, s, "refresh-ratio", "shift 4") {
		t.Fatalf("shifted span not flagged: %v", s.Violations())
	}
}

func TestRefreshTrackerSelfRefreshDivider(t *testing.T) {
	s := NewSuite()
	tr := NewRefreshTracker(s, 100, 8, false, 8, true)
	tr.ExpectDivider(4)
	// 1_600_000 cycles at divider 4: expect 1_600_000/(100<<4) = 1000.
	tr.OnAdvance(1_600_000, 1_600_000, true, 1000)
	if err := s.Err(); err != nil {
		t.Fatalf("correct pulse count flagged: %v", err)
	}
	// The channel crediting JEDEC-rate pulses (divider ignored) must trip.
	tr.OnAdvance(3_200_000, 1_600_000, true, 16_000)
	if !has(t, s, "refresh-ratio", "expected 1000") {
		t.Fatalf("divider mismatch not flagged: %v", s.Violations())
	}
}

func TestRefreshTrackerNilSafe(t *testing.T) {
	var tr *RefreshTracker
	tr.OnShift(0, 1)
	tr.OnRefresh(0, 0)
	tr.OnAdvance(0, 10, true, 1)
	tr.ExpectDivider(4)
	tr.Finish(100)
}

// --- MECC state machine ---

// fakeView is an MDT whose marked set the test controls.
type fakeView struct{ marked map[uint64]bool }

func (f fakeView) MDTMarked(r uint64) bool { return f.marked[r] }

func newActiveMECC(s *Suite, smd bool) *MECC {
	m := NewMECC(s, 1024, true, 16, smd, 2)
	m.Attach(fakeView{marked: map[uint64]bool{}}, true, !smd)
	return m
}

func TestMECCLegalLifecycle(t *testing.T) {
	s := NewSuite()
	view := fakeView{marked: map[uint64]bool{}}
	m := NewMECC(s, 1024, true, 16, false, 2)
	m.Attach(view, true, true)
	// Two downgrades in region 0 and 1, MDT marks both, sweep restores 2.
	m.OnRead(5, 10, true, true)
	view.marked[0] = true
	m.OnWrite(100, 20, true, true)
	view.marked[1] = true
	m.OnRead(5, 30, false, false) // weak re-read, no transition
	if m.weakCount != 2 {
		t.Fatalf("weak lines = %d, want 2", m.weakCount)
	}
	m.OnSweepStart(40)
	m.OnSweepEnd(40, 2)
	m.OnPhase(50, true, true)
	if err := s.Err(); err != nil {
		t.Fatalf("legal lifecycle flagged: %v", err)
	}
}

func TestMECCDowngradeWhileDisabled(t *testing.T) {
	s := NewSuite()
	m := newActiveMECC(s, true) // SMD on → downgrades start disabled
	m.OnRead(7, 10, true, true)
	if !has(t, s, "ecc-transition", "ECC-Downgrade is disabled") {
		t.Fatalf("illegal downgrade not flagged: %v", s.Violations())
	}
}

func TestMECCDowngradeOfWeakLine(t *testing.T) {
	s := NewSuite()
	m := newActiveMECC(s, false)
	m.OnRead(7, 10, true, true)
	m.OnRead(7, 20, false, true) // weak→weak "downgrade"
	if !has(t, s, "ecc-transition", "already weak") {
		t.Fatalf("double downgrade not flagged: %v", s.Violations())
	}
}

func TestMECCShadowModeMismatch(t *testing.T) {
	s := NewSuite()
	m := newActiveMECC(s, false)
	m.OnRead(7, 10, true, true)
	// A buggy controller losing the mode bit would report strong again.
	m.OnRead(7, 20, true, false)
	if !has(t, s, "ecc-transition", "shadow says weak") {
		t.Fatalf("mode-bit loss not flagged: %v", s.Violations())
	}
}

func TestMECCAccessWhileIdle(t *testing.T) {
	s := NewSuite()
	m := newActiveMECC(s, false)
	m.OnSweepStart(10)
	m.OnSweepEnd(10, 0)
	m.OnRead(3, 20, true, false)
	if !has(t, s, "ecc-transition", "while idle") {
		t.Fatalf("idle access not flagged: %v", s.Violations())
	}
}

func TestMECCMDTSupersetViolation(t *testing.T) {
	s := NewSuite()
	view := fakeView{marked: map[uint64]bool{}}
	m := NewMECC(s, 1024, true, 16, false, 2)
	m.Attach(view, true, true)
	m.OnRead(5, 10, true, true)
	// MDT never marked region 0: the sweep would skip a downgraded line.
	m.OnSweepStart(20)
	if !has(t, s, "mdt-superset", "region 0") {
		t.Fatalf("unmarked dirty region not flagged: %v", s.Violations())
	}
}

func TestMECCSweepCountMismatch(t *testing.T) {
	s := NewSuite()
	view := fakeView{marked: map[uint64]bool{0: true}}
	m := NewMECC(s, 1024, true, 16, false, 2)
	m.Attach(view, true, true)
	m.OnRead(5, 10, true, true)
	m.OnSweepStart(20)
	m.OnSweepEnd(20, 0) // claims nothing was upgraded
	if !has(t, s, "ecc-transition", "expected 1") {
		t.Fatalf("sweep count mismatch not flagged: %v", s.Violations())
	}
}

func TestMECCSMDGating(t *testing.T) {
	s := NewSuite()
	m := newActiveMECC(s, true)
	m.OnSMDEnable(10, 1.5, true) // below the threshold of 2
	if !has(t, s, "smd-gating", "1.500") {
		t.Fatalf("below-threshold enable not flagged: %v", s.Violations())
	}

	s2 := NewSuite()
	m2 := newActiveMECC(s2, true)
	m2.OnSMDEnable(10, 0, false) // no sample at all
	if !has(t, s2, "smd-gating", "without an MPKC sample") {
		t.Fatalf("unsampled enable not flagged: %v", s2.Violations())
	}

	s3 := NewSuite()
	m3 := newActiveMECC(s3, true)
	m3.OnPhase(10, true, true) // wake-up with downgrades already on
	if !has(t, s3, "smd-gating", "wake-up") {
		t.Fatalf("wake-up gating not flagged: %v", s3.Violations())
	}

	// Legal: sample above threshold.
	s4 := NewSuite()
	m4 := newActiveMECC(s4, true)
	m4.OnSMDEnable(10, 2.5, true)
	if err := s4.Err(); err != nil {
		t.Fatalf("legal SMD enable flagged: %v", err)
	}
}

func TestMECCNilSafe(t *testing.T) {
	var m *MECC
	m.Attach(nil, true, true)
	m.OnRead(0, 0, true, true)
	m.OnWrite(0, 0, true, true)
	m.OnSMDEnable(0, 0, false)
	m.OnSweepStart(0)
	m.OnSweepEnd(0, 1)
	m.OnPhase(0, true, true)
}

// --- energy / cycle accounting ---

func TestEnergyChecks(t *testing.T) {
	s := NewSuite()
	s.CheckNonNegative("energy/refresh", 1, -0.5)
	if !has(t, s, "energy", "energy/refresh") {
		t.Fatalf("negative energy not flagged: %v", s.Violations())
	}
	s2 := NewSuite()
	s2.CheckSum("energy/total", 1, 10, 3, 3, 3) // 10 != 9
	if !has(t, s2, "energy", "total 10") {
		t.Fatalf("bad sum not flagged: %v", s2.Violations())
	}
	s2 = NewSuite()
	s2.CheckSum("energy/total", 1, 9, 3, 3, 3)
	s2.CheckNonNegative("ok", 1, 0)
	if err := s2.Err(); err != nil {
		t.Fatalf("exact sum flagged: %v", err)
	}
	s3 := NewSuite()
	s3.CheckMonotonic("energy/phase", 1, 5, 4)
	if !has(t, s3, "energy", "shrank") {
		t.Fatalf("shrinking counter not flagged: %v", s3.Violations())
	}
	s4 := NewSuite()
	s4.CheckEqualU64("cycles/accounting", 1, 100, 99)
	if !has(t, s4, "cycles", "100 != 99") {
		t.Fatalf("cycle mismatch not flagged: %v", s4.Violations())
	}
}

// --- fault plans ---

func TestRefreshFaultsConsumption(t *testing.T) {
	p := &FaultPlan{Faults: []Fault{
		{Kind: DropRefresh, Seq: 3},
		{Kind: DelayRefresh, Seq: 3, DelayCycles: 10},
		{Kind: DropRefresh, Seq: 5},
	}}
	rf := p.RefreshFaults()
	if _, ok := rf.Next(0); ok {
		t.Fatal("no fault scheduled at seq 0")
	}
	f1, ok := rf.Next(3)
	if !ok || f1.Kind != DropRefresh {
		t.Fatalf("seq 3 first pop = %+v, %v", f1, ok)
	}
	f2, ok := rf.Next(3)
	if !ok || f2.Kind != DelayRefresh {
		t.Fatalf("seq 3 second pop = %+v, %v", f2, ok)
	}
	if _, ok := rf.Next(3); ok {
		t.Fatal("seq 3 must be exhausted")
	}
	if _, ok := rf.Next(5); !ok {
		t.Fatal("seq 5 fault lost")
	}
	// Nil-safety.
	var nilRF *RefreshFaults
	if _, ok := nilRF.Next(0); ok {
		t.Fatal("nil RefreshFaults must be inert")
	}
	var nilPlan *FaultPlan
	if nilPlan.RefreshFaults() != nil {
		t.Fatal("nil plan must be inert")
	}
}

func TestSuiteContextLabel(t *testing.T) {
	s := NewSuite()
	s.Report("refresh-ratio", 10, "unlabelled")
	s.SetContext("phone-day/hot-idle")
	s.Report("refresh-ratio", 20, "labelled")
	s.SetContext("")
	s.Report("refresh-ratio", 30, "cleared")
	v := s.Violations()
	if len(v) != 3 {
		t.Fatalf("violations = %d, want 3", len(v))
	}
	if v[0].Context != "" || v[2].Context != "" {
		t.Errorf("contexts leaked outside the labelled window: %q, %q", v[0].Context, v[2].Context)
	}
	if v[1].Context != "phone-day/hot-idle" {
		t.Errorf("context = %q, want phone-day/hot-idle", v[1].Context)
	}
	if got, want := v[1].String(), "[phone-day/hot-idle] refresh-ratio@20: labelled"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := v[0].String(), "refresh-ratio@10: unlabelled"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if s.context != "" {
		t.Errorf("context = %q after clear", s.context)
	}

	// Nil-safety: the hooks must be inert on a nil suite.
	var nilSuite *Suite
	nilSuite.SetContext("x")
}
