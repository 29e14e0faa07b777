// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V and VI): each Table*/Fig* function runs the
// required simulations or analytic models and returns both structured
// data and a rendered text table whose rows mirror what the paper
// reports. cmd/paperbench and the repository's bench_test.go are thin
// wrappers over this package.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/checker"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ErrBadOptions reports invalid harness options.
var ErrBadOptions = errors.New("experiments: invalid options")

// PaperInstructions is the slice length the paper simulates per
// benchmark (Section IV-B: 4 billion instructions).
const PaperInstructions = 4_000_000_000

// Options control simulation scale.
type Options struct {
	// Scale divides the paper's 4-billion-instruction slices; workload
	// footprints and SMD windows shrink by the same factor so transient
	// ratios are preserved (see workload.Profile.Scaled). Scale 1 is the
	// paper's full scale; the default harness scale is 400.
	Scale int
	// Seed drives workload generation.
	Seed int64
	// Parallel bounds concurrent simulations (0 = GOMAXPROCS).
	Parallel int
	// Obs, when non-nil, is threaded into every simulation the harness
	// runs. The recorder's counters are atomic and its event log is
	// locked, so parallel runs may share it; nil (the default) keeps
	// telemetry off.
	Obs *obs.Recorder
	// Check, when non-nil, attaches run-time invariant checkers
	// (internal/checker) to every simulation. The suite is locked, so
	// parallel runs share it; nil (the default) keeps checking off.
	Check *checker.Suite
}

// DefaultOptions returns the harness defaults.
func DefaultOptions() Options {
	return Options{Scale: 400, Seed: 1}
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.Scale < 1 {
		return fmt.Errorf("%w: scale=%d", ErrBadOptions, o.Scale)
	}
	if o.Parallel < 0 {
		return fmt.Errorf("%w: parallel=%d", ErrBadOptions, o.Parallel)
	}
	return nil
}

// Instructions returns the per-benchmark slice length at this scale.
func (o Options) Instructions() int64 {
	n := int64(PaperInstructions) / int64(o.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// parallel returns the worker-pool width.
func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// simConfig builds the scheme's simulation config at this scale,
// including the scale-adjusted SMD window.
func (o Options) simConfig(k sim.SchemeKind) sim.Config {
	cfg := sim.DefaultConfig(k, o.Instructions())
	cfg.Seed = o.Seed
	cfg.MECC.SMDWindowCycles /= uint64(o.Scale)
	if cfg.MECC.SMDWindowCycles == 0 {
		cfg.MECC.SMDWindowCycles = 1
	}
	cfg.Obs = o.Obs
	cfg.Check = o.Check
	return cfg
}

// runJob is one (benchmark, variant) simulation request.
type runJob struct {
	prof workload.Profile
	cfg  sim.Config
}

// runMany executes jobs across a bounded worker pool, preserving order.
// With telemetry attached it advances the shared progress tracker per
// completed job and wraps each simulation in a trace span (wall-clock
// nanoseconds — the harness's clock domain) that the runner's own
// CPU-cycle "run" span parents under.
func runMany(jobs []runJob, width int) ([]sim.Result, error) {
	results := make([]sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	var prog *obs.Progress
	if len(jobs) > 0 {
		if prog = jobs[0].cfg.Obs.Progress(); prog != nil {
			prog.SetWork(0, uint64(len(jobs)))
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, width)
	for i := range jobs {
		wg.Add(1)
		go func(j runJob, slot int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var sp *obs.Span
			if rec := j.cfg.Obs; rec.Tracing() {
				sp = rec.StartSpan(
					fmt.Sprintf("job:%s/%s", j.prof.Name, j.cfg.Scheme), uint64(time.Now().UnixNano()))
				j.cfg.SpanParent = sp.ID()
			}
			results[slot], errs[slot] = sim.RunBenchmark(j.prof, j.cfg)
			sp.End(uint64(time.Now().UnixNano()))
			prog.AddDone(1)
		}(jobs[i], i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Suite caches the 28-benchmark x 4-scheme result matrix that Figs. 3, 7,
// 9 and 10 share, so paperbench does not re-simulate per figure.
type Suite struct {
	opts Options

	mu      sync.Mutex
	results map[string]map[sim.SchemeKind]sim.Result
}

// NewSuite builds a result cache at the given scale.
func NewSuite(opts Options) (*Suite, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Suite{
		opts:    opts,
		results: make(map[string]map[sim.SchemeKind]sim.Result),
	}, nil
}

// Matrix runs (or returns cached) results for every benchmark under the
// given schemes.
func (s *Suite) Matrix(schemes ...sim.SchemeKind) (map[string]map[sim.SchemeKind]sim.Result, error) {
	var jobs []runJob
	var keys []struct {
		bench string
		k     sim.SchemeKind
	}
	s.mu.Lock()
	for _, prof := range workload.All() {
		for _, k := range schemes {
			if _, ok := s.results[prof.Name][k]; ok {
				continue
			}
			jobs = append(jobs, runJob{
				prof: prof.Scaled(s.opts.Scale),
				cfg:  s.opts.simConfig(k),
			})
			keys = append(keys, struct {
				bench string
				k     sim.SchemeKind
			}{prof.Name, k})
		}
	}
	s.mu.Unlock()

	res, err := runMany(jobs, s.opts.parallel())
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for i, key := range keys {
		if s.results[key.bench] == nil {
			s.results[key.bench] = make(map[sim.SchemeKind]sim.Result)
		}
		s.results[key.bench][key.k] = res[i]
	}
	out := make(map[string]map[sim.SchemeKind]sim.Result, len(s.results))
	for b, m := range s.results {
		inner := make(map[sim.SchemeKind]sim.Result, len(m))
		for k, v := range m {
			inner[k] = v
		}
		out[b] = inner
	}
	return out, nil
}
