package obs

import "fmt"

// defaultMaxRows bounds sampler memory; one row per quantum means a
// 64 ms quantum covers over an hour of simulated time at this cap.
const defaultMaxRows = 1 << 16

// Sampler records a time series: at every quantum boundary it samples a
// set of probes into one row. Counter probes are differenced (the row
// holds the delta over the quantum); gauge probes are sampled as-is.
// Tick is driven by the simulation loop with the current cycle and is
// cheap when no boundary was crossed. Not safe for concurrent use: one
// sampler belongs to one runner.
type Sampler struct {
	quantum uint64
	names   []string
	probes  []func() float64
	cumul   []bool
	last    []float64
	next    uint64
	rows    []SampleRow
	maxRows int
}

// SampleRow is one quantum's samples; T is the boundary cycle and V
// holds one value per probe, in registration order.
type SampleRow struct {
	T uint64
	V []float64
}

// NewSampler builds a sampler with the given quantum in cycles (the
// paper's 64 ms SMD window, scaled, is the natural choice).
func NewSampler(quantum uint64) (*Sampler, error) {
	if quantum == 0 {
		return nil, fmt.Errorf("obs: sampler quantum must be positive")
	}
	return &Sampler{quantum: quantum, next: quantum, maxRows: defaultMaxRows}, nil
}

// Quantum returns the sampling quantum in cycles.
func (s *Sampler) Quantum() uint64 { return s.quantum }

// AddGaugeProbe samples f's value at each boundary.
func (s *Sampler) AddGaugeProbe(name string, f func() float64) {
	s.names = append(s.names, name)
	s.probes = append(s.probes, f)
	s.cumul = append(s.cumul, false)
	s.last = append(s.last, 0)
}

// AddCounterProbe samples the counter's delta over each quantum.
func (s *Sampler) AddCounterProbe(name string, c *Counter) {
	s.names = append(s.names, name)
	s.probes = append(s.probes, func() float64 { return float64(c.Value()) })
	s.cumul = append(s.cumul, true)
	s.last = append(s.last, 0)
}

// Tick advances the sampler to cycle now, flushing one row per crossed
// quantum boundary.
func (s *Sampler) Tick(now uint64) {
	for now >= s.next {
		s.flush(s.next)
		s.next += s.quantum
	}
}

// flush samples every probe into one row stamped at boundary cycle t.
func (s *Sampler) flush(t uint64) {
	if len(s.rows) >= s.maxRows {
		// Keep counter baselines moving so a later resume stays correct.
		for i, f := range s.probes {
			if s.cumul[i] {
				s.last[i] = f()
			}
		}
		return
	}
	row := SampleRow{T: t, V: make([]float64, len(s.probes))}
	for i, f := range s.probes {
		v := f()
		if s.cumul[i] {
			row.V[i] = v - s.last[i]
			s.last[i] = v
		} else {
			row.V[i] = v
		}
	}
	s.rows = append(s.rows, row)
}

// Names returns the probe names in registration (column) order.
func (s *Sampler) Names() []string { return append([]string(nil), s.names...) }

// Rows returns the recorded rows (not a copy; treat as read-only).
func (s *Sampler) Rows() []SampleRow { return s.rows }
