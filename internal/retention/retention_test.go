package retention

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestDefaultModelAnchors(t *testing.T) {
	m := DefaultModel()
	if got := m.BER(SlowPeriod); math.Abs(got-SlowBitErrorRate)/SlowBitErrorRate > 1e-9 {
		t.Errorf("BER(1s) = %g, want %g", got, SlowBitErrorRate)
	}
	if got := m.BER(JEDECPeriod); math.Abs(got-JEDECBitErrorRate)/JEDECBitErrorRate > 1e-9 {
		t.Errorf("BER(64ms) = %g, want %g", got, JEDECBitErrorRate)
	}
	// Slope of the Fig. 2 line: 4.5 decades over log10(1/0.064) decades.
	wantSlope := 4.5 / math.Log10(1/0.064)
	if math.Abs(m.Slope()-wantSlope) > 1e-9 {
		t.Errorf("slope = %v, want %v", m.Slope(), wantSlope)
	}
}

func TestBERMonotonicAndClamped(t *testing.T) {
	m := DefaultModel()
	prev := -1.0
	for _, p := range []time.Duration{
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
		time.Second, 10 * time.Second, time.Hour,
	} {
		ber := m.BER(p)
		if ber < prev {
			t.Fatalf("BER not monotone at %v", p)
		}
		if ber < 0 || ber > 1 {
			t.Fatalf("BER(%v) = %g out of range", p, ber)
		}
		prev = ber
	}
	if m.BER(0) != 0 || m.BER(-time.Second) != 0 {
		t.Error("BER of non-positive period should be 0")
	}
}

func TestPeriodForInvertsBER(t *testing.T) {
	m := DefaultModel()
	for _, p := range []time.Duration{100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second} {
		got := m.PeriodFor(m.BER(p))
		if math.Abs(got.Seconds()-p.Seconds()) > 1e-6 {
			t.Errorf("PeriodFor(BER(%v)) = %v", p, got)
		}
	}
	if m.PeriodFor(0) != 0 {
		t.Error("PeriodFor(0) should be 0")
	}
}

func TestNewModelValidation(t *testing.T) {
	cases := []struct {
		p1 time.Duration
		b1 float64
		p2 time.Duration
		b2 float64
	}{
		{0, 1e-9, time.Second, 1e-4},                // zero period
		{time.Second, 1e-9, time.Second, 1e-4},      // equal periods
		{time.Millisecond, 0, time.Second, 1e-4},    // zero ber
		{time.Millisecond, 1e-4, time.Second, 1e-9}, // decreasing ber
		{time.Millisecond, 1e-4, time.Second, 1.5},  // ber > 1
	}
	for i, c := range cases {
		if _, err := NewModel(c.p1, c.b1, c.p2, c.b2); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestCurveShape(t *testing.T) {
	m := DefaultModel()
	periods, bers := m.Curve(10*time.Millisecond, 10*time.Second, 31)
	if len(periods) != 31 || len(bers) != 31 {
		t.Fatalf("curve lengths %d/%d", len(periods), len(bers))
	}
	if periods[0] != 10*time.Millisecond {
		t.Errorf("first period = %v", periods[0])
	}
	for i := 1; i < len(bers); i++ {
		if bers[i] < bers[i-1] || periods[i] <= periods[i-1] {
			t.Fatalf("curve not monotone at %d", i)
		}
	}
	if p, b := m.Curve(time.Second, time.Second, 5); p != nil || b != nil {
		t.Error("degenerate range should return nil")
	}
}

func TestInjectorStatistics(t *testing.T) {
	const (
		nbits  = 576
		trials = 20000
		ber    = 1e-3
	)
	in := NewInjector(42, ber)
	total := 0
	for i := 0; i < trials; i++ {
		pos := in.FlipPositions(nbits)
		total += len(pos)
		for j := 1; j < len(pos); j++ {
			if pos[j] <= pos[j-1] {
				t.Fatal("positions not strictly increasing")
			}
		}
		if len(pos) > 0 && (pos[0] < 0 || pos[len(pos)-1] >= nbits) {
			t.Fatal("position out of range")
		}
	}
	mean := float64(total) / trials
	want := nbits * ber
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean flips = %v, want ≈ %v", mean, want)
	}
}

func TestInjectorEdgeCases(t *testing.T) {
	if got := NewInjector(1, 0).FlipPositions(100); got != nil {
		t.Error("ber=0 should flip nothing")
	}
	if got := NewInjector(1, 1).FlipPositions(5); len(got) != 5 {
		t.Error("ber=1 should flip everything")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	a := NewInjector(99, 1e-3).FlipPositions(10000)
	b := NewInjector(99, 1e-3).FlipPositions(10000)
	if len(a) != len(b) {
		t.Fatal("determinism broken: different counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("determinism broken: different positions")
		}
	}
}

func TestTemperatureDependence(t *testing.T) {
	m := DefaultModel()
	// At the nominal temperature the temp-aware call matches the base.
	if got, want := m.BERAtTemp(SlowPeriod, NominalTempC), m.BER(SlowPeriod); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("nominal temp BER = %g, want %g", got, want)
	}
	// +10 degC halves retention: BER(1s, 55C) == BER(2s, 45C).
	if got, want := m.BERAtTemp(SlowPeriod, NominalTempC+10), m.BER(2*SlowPeriod); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("hot BER = %g, want %g", got, want)
	}
	// Hotter is strictly worse; cooler strictly better.
	if m.BERAtTemp(SlowPeriod, 65) <= m.BERAtTemp(SlowPeriod, 45) {
		t.Error("BER not increasing with temperature")
	}
	if m.BERAtTemp(SlowPeriod, 25) >= m.BERAtTemp(SlowPeriod, 45) {
		t.Error("BER not decreasing when cool")
	}
}

// TestFailureMapReproducible is the regression test for seeded fault
// injection: two independent runs with the same seeds must produce
// bit-identical failure maps (line index -> failed bit positions),
// including the buffer-reusing append path.
// A run that consulted any ambient randomness — or depended on map
// iteration order — would diverge here.
func TestFailureMapReproducible(t *testing.T) {
	const (
		seed        = 42
		lines       = 2000
		bitsPerLine = 576
		ber         = 2e-3
	)
	buildMap := func() map[uint64][]int {
		inj := NewInjector(seed, ber)
		failed := make(map[uint64][]int)
		var buf []int
		for li := uint64(0); li < lines; li++ {
			buf = inj.FlipPositionsAppend(bitsPerLine, buf[:0])
			if len(buf) > 0 {
				failed[li] = append([]int(nil), buf...)
			}
		}
		return failed
	}
	a, b := buildMap(), buildMap()
	if len(a) != len(b) {
		t.Fatalf("failure maps differ in size: %d vs %d lines", len(a), len(b))
	}
	for li, bitsA := range a {
		bitsB, ok := b[li]
		if !ok {
			t.Fatalf("line %d failed in run A only", li)
		}
		if len(bitsA) != len(bitsB) {
			t.Fatalf("line %d: %d vs %d failed bits", li, len(bitsA), len(bitsB))
		}
		for i := range bitsA {
			if bitsA[i] != bitsB[i] {
				t.Fatalf("line %d bit %d: %d vs %d", li, i, bitsA[i], bitsB[i])
			}
		}
	}
	if len(a) == 0 {
		t.Fatal("expected some failures at this BER; map was empty")
	}
}

func TestCheckTemp(t *testing.T) {
	for _, ok := range []float64{-40, 0, 45, 85, 125} {
		if err := CheckTemp(ok); err != nil {
			t.Errorf("CheckTemp(%g) = %v", ok, err)
		}
	}
	for _, bad := range []float64{-41, 126, math.NaN()} {
		err := CheckTemp(bad)
		if !errors.Is(err, ErrBadTemperature) {
			t.Errorf("CheckTemp(%g) = %v, want ErrBadTemperature", bad, err)
		}
	}
}
