package workload

import (
	"math"
	"testing"

	"repro/internal/trace"
)

const memLines = 1 << 24 // 1 GB of 64 B lines

func TestSuiteShape(t *testing.T) {
	all := All()
	if len(all) != 28 {
		t.Fatalf("suite size = %d, want 28 (paper Section IV-B)", len(all))
	}
	if n := len(ByClass(LowMPKI)); n != 8 {
		t.Errorf("Low-MPKI count = %d, want 8", n)
	}
	if n := len(ByClass(MedMPKI)); n != 13 {
		t.Errorf("Med-MPKI count = %d, want 13", n)
	}
	if n := len(ByClass(HighMPKI)); n != 7 {
		t.Errorf("High-MPKI count = %d, want 7", n)
	}
	// Fig. 7 starts with povray and ends with bwaves.
	if all[0].Name != "povray" || all[27].Name != "bwaves" {
		t.Errorf("ordering: first=%s last=%s", all[0].Name, all[27].Name)
	}
	// mcf is excluded (footprint 1.4 GB > 1 GB memory; paper footnote 1).
	if _, err := ByName("mcf"); err == nil {
		t.Error("mcf should not be in the suite")
	}
}

func TestClassAveragesMatchTableIII(t *testing.T) {
	check := func(c Class, wantMPKI, wantFP float64, tolMPKI, tolFP float64) {
		t.Helper()
		ps := ByClass(c)
		var mpki, fp float64
		for _, p := range ps {
			mpki += p.MPKI
			fp += float64(p.FootprintMB)
		}
		mpki /= float64(len(ps))
		fp /= float64(len(ps))
		if math.Abs(mpki-wantMPKI)/wantMPKI > tolMPKI {
			t.Errorf("%v avg MPKI = %.2f, Table III %.1f", c, mpki, wantMPKI)
		}
		if math.Abs(fp-wantFP)/wantFP > tolFP {
			t.Errorf("%v avg footprint = %.1f MB, Table III %.1f", c, fp, wantFP)
		}
	}
	check(LowMPKI, 0.3, 26, 0.15, 0.15)
	check(MedMPKI, 4.7, 96.4, 0.15, 0.15)
	check(HighMPKI, 23.5, 259.1, 0.15, 0.15)
}

func TestAverageFootprintIs128MB(t *testing.T) {
	// Paper Section VI-A: "On average the memory footprint of all the
	// benchmarks is 128MB, which is 8x smaller than the 1GB memory".
	var fp float64
	for _, p := range All() {
		fp += float64(p.FootprintMB)
	}
	fp /= 28
	if fp < 100 || fp > 150 {
		t.Errorf("mean footprint = %.0f MB, paper says ≈128 MB", fp)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("libq")
	if err != nil {
		t.Fatal(err)
	}
	if p.Class() != HighMPKI {
		t.Error("libq should be High-MPKI")
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("want error for unknown name")
	}
	if got := len(Names()); got != 28 {
		t.Errorf("Names() = %d entries", got)
	}
}

func TestClassOf(t *testing.T) {
	if ClassOf(0.5) != LowMPKI || ClassOf(5) != MedMPKI || ClassOf(50) != HighMPKI {
		t.Error("ClassOf buckets wrong")
	}
	if ClassOf(1) != MedMPKI || ClassOf(10) != MedMPKI {
		t.Error("boundary buckets wrong")
	}
	for _, c := range []Class{LowMPKI, MedMPKI, HighMPKI} {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
	if Class(9).String() != "Class(9)" {
		t.Error("unknown class string")
	}
}

func TestGeneratorMPKI(t *testing.T) {
	for _, name := range []string{"povray", "gcc", "libq"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGenerator(p, memLines, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Stream ~2M instructions and verify the read MPKI.
		src := NewBounded(g, 2_000_000)
		s := trace.Summarize(src)
		got := s.MPKI()
		if math.Abs(got-p.MPKI)/p.MPKI > 0.10 {
			t.Errorf("%s: generated MPKI %.3f, want %.3f", name, got, p.MPKI)
		}
		// Write fraction roughly as configured.
		wf := float64(s.Writes) / float64(s.Reads)
		if math.Abs(wf-p.WriteFrac) > 0.05 {
			t.Errorf("%s: write frac %.2f, want %.2f", name, wf, p.WriteFrac)
		}
	}
}

func TestGeneratorFootprintBounded(t *testing.T) {
	p, err := ByName("libq") // 34 MB footprint, 1 fragment
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(p, memLines, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]struct{})
	for i := 0; i < 500_000; i++ {
		r, _ := g.Next()
		seen[r.LineAddr] = struct{}{}
		if r.LineAddr >= memLines {
			t.Fatal("address out of memory")
		}
	}
	footMB := float64(len(seen)) * 64 / (1 << 20)
	if footMB > float64(p.FootprintMB)*1.01 {
		t.Errorf("touched %.1f MB > footprint %d MB", footMB, p.FootprintMB)
	}
	// A streaming workload should cover most of its footprint.
	if footMB < float64(p.FootprintMB)*0.5 {
		t.Errorf("touched only %.1f MB of %d MB", footMB, p.FootprintMB)
	}
}

func TestGeneratorSequentialLocality(t *testing.T) {
	// High SeqProb must yield many +1 strides; low SeqProb few.
	stride1 := func(name string) float64 {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGenerator(p, memLines, 3)
		if err != nil {
			t.Fatal(err)
		}
		var prev uint64
		hits, n := 0, 0
		for i := 0; i < 100_000; i++ {
			r, _ := g.Next()
			if r.Op != trace.OpRead {
				continue
			}
			if n > 0 && r.LineAddr == prev+1 {
				hits++
			}
			prev = r.LineAddr
			n++
		}
		return float64(hits) / float64(n)
	}
	if s := stride1("libq"); s < 0.85 {
		t.Errorf("libq stride-1 rate %.2f, want > 0.85", s)
	}
	if s := stride1("omnetpp"); s > 0.30 {
		t.Errorf("omnetpp stride-1 rate %.2f, want < 0.30", s)
	}
}

// take materializes the next n records of a generator.
func take(g *Generator, n int) []trace.Record {
	out := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		r, ok := g.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

func TestGeneratorDeterminism(t *testing.T) {
	p, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewGenerator(p, memLines, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(p, memLines, 42)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := take(a, 10_000), take(b, 10_000)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("divergence at %d", i)
		}
	}
	c, err := NewGenerator(p, memLines, 43)
	if err != nil {
		t.Fatal(err)
	}
	rc := take(c, 10_000)
	same := 0
	for i := range ra {
		if ra[i] == rc[i] {
			same++
		}
	}
	if same == len(ra) {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeneratorValidation(t *testing.T) {
	bad := []Profile{
		{Name: "x", MPKI: 0, BaseCPI: 1, FootprintMB: 10},
		{Name: "x", MPKI: 1, BaseCPI: 0.2, FootprintMB: 10},
		{Name: "x", MPKI: 1, BaseCPI: 1, FootprintMB: 0},
		{Name: "x", MPKI: 1, BaseCPI: 1, FootprintMB: 99999},
	}
	for i, p := range bad {
		if _, err := NewGenerator(p, memLines, 1); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestBounded(t *testing.T) {
	p, err := ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(p, memLines, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBounded(g, 100_000)
	var instrs uint64
	for {
		r, ok := b.Next()
		if !ok {
			break
		}
		instrs += uint64(r.Gap) + 1
	}
	// Bounded stops after the budget, overshooting by at most one gap.
	if instrs < 100_000 || instrs > 100_000+1_000_000/35 {
		t.Errorf("instructions = %d", instrs)
	}
}

func TestDaemonProfile(t *testing.T) {
	d := Daemon()
	if d.Class() != LowMPKI {
		t.Error("daemon should be Low-MPKI")
	}
	if _, err := NewGenerator(d, memLines, 1); err != nil {
		t.Errorf("daemon profile invalid: %v", err)
	}
}

func TestBurstPhasesPreserveMPKIAndVaryRate(t *testing.T) {
	p, err := ByName("namd") // BurstMult 3.5, 20% duty
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(p, memLines, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Overall MPKI preserved across full periods.
	src := NewBounded(g, p.BurstPeriodInstr*2)
	s := trace.Summarize(src)
	if got := s.MPKI(); math.Abs(got-p.MPKI)/p.MPKI > 0.12 {
		t.Errorf("bursty MPKI = %.3f, want %.3f", got, p.MPKI)
	}
	// Burst phase has a visibly higher rate than the calm phase.
	g2, err := NewGenerator(p, memLines, 6)
	if err != nil {
		t.Fatal(err)
	}
	var burstInstr, burstReads, calmInstr, calmReads int64
	pos := int64(0)
	for pos < p.BurstPeriodInstr {
		r, _ := g2.Next()
		pos += int64(r.Gap) + 1
		if r.Op != trace.OpRead {
			continue
		}
		if pos < p.BurstLenInstr {
			burstInstr += int64(r.Gap) + 1
			burstReads++
		} else {
			calmInstr += int64(r.Gap) + 1
			calmReads++
		}
	}
	burstRate := float64(burstReads) / float64(burstInstr)
	calmRate := float64(calmReads) / float64(calmInstr)
	if burstRate < 3*calmRate {
		t.Errorf("burst rate %.5f not >> calm rate %.5f", burstRate, calmRate)
	}
}

func TestMobileProfiles(t *testing.T) {
	mobile := Mobile()
	if len(mobile) != 4 {
		t.Fatalf("mobile profiles = %d", len(mobile))
	}
	for _, p := range mobile {
		if _, err := NewGenerator(p, memLines, 1); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		// Mobile names never shadow the SPEC suite.
		if _, err := ByName(p.Name); err == nil {
			t.Errorf("%s collides with the SPEC suite", p.Name)
		}
	}
	if _, err := MobileByName("videoplay"); err != nil {
		t.Error(err)
	}
	if _, err := MobileByName("nope"); err == nil {
		t.Error("want error")
	}
	// videoplay streams: stride-1 dominates.
	p, err := MobileByName("videoplay")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(p, memLines, 2)
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	hits, n := 0, 0
	for i := 0; i < 50_000; i++ {
		r, _ := g.Next()
		if r.Op != trace.OpRead {
			continue
		}
		if n > 0 && r.LineAddr == prev+1 {
			hits++
		}
		prev = r.LineAddr
		n++
	}
	if rate := float64(hits) / float64(n); rate < 0.85 {
		t.Errorf("videoplay stride-1 rate = %.2f", rate)
	}
}
