package obs

import "testing"

func TestNewSamplerRejectsZeroQuantum(t *testing.T) {
	if _, err := NewSampler(0); err == nil {
		t.Error("quantum 0: want error")
	}
}

func TestSamplerCounterDeltasAndGauges(t *testing.T) {
	s, err := NewSampler(100)
	if err != nil {
		t.Fatal(err)
	}
	c := NewRegistry().Counter("reads")
	level := 0.0
	s.AddCounterProbe("reads", c)
	s.AddGaugeProbe("level", func() float64 { return level })

	c.Add(5)
	level = 1
	s.Tick(99) // no boundary yet
	if len(s.Rows()) != 0 {
		t.Fatalf("early rows: %+v", s.Rows())
	}
	s.Tick(100) // boundary at 100
	c.Add(7)
	level = 2
	s.Tick(350) // boundaries at 200 and 300

	rows := s.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].T != 100 || rows[1].T != 200 || rows[2].T != 300 {
		t.Errorf("timestamps = %d %d %d", rows[0].T, rows[1].T, rows[2].T)
	}
	// First quantum saw 5 increments; the next two split the later 7
	// (all sampled at the 200 boundary, none at 300).
	if rows[0].V[0] != 5 || rows[1].V[0] != 7 || rows[2].V[0] != 0 {
		t.Errorf("counter deltas = %v %v %v", rows[0].V[0], rows[1].V[0], rows[2].V[0])
	}
	// Gauges sample the instantaneous value at flush time.
	if rows[0].V[1] != 1 || rows[1].V[1] != 2 {
		t.Errorf("gauge samples = %v %v", rows[0].V[1], rows[1].V[1])
	}

	names := s.Names()
	if len(names) != 2 || names[0] != "reads" || names[1] != "level" {
		t.Errorf("names = %v", names)
	}
}

func TestSamplerRetentionBound(t *testing.T) {
	s, err := NewSampler(1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewRegistry().Counter("n")
	s.AddCounterProbe("n", c)
	c.Add(1)
	s.Tick(uint64(defaultMaxRows) + 10)
	if got := len(s.Rows()); got != defaultMaxRows {
		t.Errorf("rows = %d, want %d", got, defaultMaxRows)
	}
	// The counter baseline must keep advancing through dropped rows:
	// increments during the overflow window never resurface later.
	c.Add(4)
	rowsBefore := len(s.Rows())
	s.Tick(uint64(defaultMaxRows) + 11)
	if len(s.Rows()) != rowsBefore {
		t.Errorf("rows grew past the bound")
	}
}
