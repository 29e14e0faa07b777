package main

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// Workload sizes. fig7 keeps paperbench's default scale because that is
// what users run; day and integrity are enlarged until one paperbench
// run lasts seconds, so process start-up does not dominate the timing.
const (
	fig7Scale       = 400       // paperbench's default -scale
	dayScale        = 40        // the default finishes in 0.2 s
	integrityTrials = 1_000_000 // the default 5000 finishes in 13 ms
)

// daySessions and daySchemes count the simulated work of DayInTheLife:
// three schemes, each through six active bursts of Instructions()/6.
const daySessions, daySchemes = 6, 3

// fig7Schemes is Fig. 7's scheme set; with the 28 benchmarks it makes
// the exhibit's 112 simulation jobs.
const fig7Schemes = 4

// workloadSpec is one paperbench invocation the benchmark times.
type workloadSpec struct {
	name string
	// args are paperbench's arguments for a seed. Everything not named
	// stays at paperbench's default: obs recorder on, 16k-slot flight
	// ring on, GOMAXPROCS-wide job pool.
	args func(seed int64) []string
	// scale is the -scale the run uses (for in-process measurements).
	scale int
	// section is the exhibit header its output must contain.
	section string
	// throughput names the workload's work-rate metric, printed next to
	// the generic throughput_m_per_s it equals.
	throughput, throughputUnit string
	// work returns the exhibit's work in millions of units: simulated
	// instructions, or codewords encoded plus decoded.
	work func(out output) (float64, error)
	// exhibit runs the same exhibit in-process, output discarded.
	exhibit func(opts experiments.Options) error
}

var workloads = map[string]*workloadSpec{
	"fig7": {
		name: "fig7",
		args: func(seed int64) []string {
			return []string{"-experiment", "fig7", "-seed", strconv.FormatInt(seed, 10)}
		},
		scale:          fig7Scale,
		section:        "=== Fig 7:",
		throughput:     "sim_minstr_per_s",
		throughputUnit: "Minstr/s",
		work: func(output) (float64, error) {
			n := len(workload.All()) * fig7Schemes
			return float64(n) * float64(options(fig7Scale, 0).Instructions()) / 1e6, nil
		},
		exhibit: func(opts experiments.Options) error {
			suite, err := experiments.NewSuite(opts)
			if err == nil {
				_, err = experiments.Fig7(suite)
			}
			return err
		},
	},
	"integrity": {
		name: "integrity",
		args: func(seed int64) []string {
			return []string{"-experiment", "integrity", "-integrity-trials", strconv.Itoa(integrityTrials),
				"-seed", strconv.FormatInt(seed, 10)}
		},
		scale:          fig7Scale,
		section:        "=== Integrity:",
		throughput:     "codec_mlines_per_s",
		throughputUnit: "Mlines/s",
		work: func(out output) (float64, error) {
			// Every codeword the Monte Carlo encodes or decodes goes
			// through the batch codecs, which count them.
			n, ok := out.counters["batch_items_total"]
			if !ok || n == 0 {
				return 0, fmt.Errorf("integrity output has no batch_items_total counter")
			}
			return n / 1e6, nil
		},
		exhibit: func(opts experiments.Options) error {
			_, err := experiments.Integrity(integrityTrials, 0, opts.Seed)
			return err
		},
	},
	"day": {
		name: "day",
		args: func(seed int64) []string {
			return []string{"-experiment", "day", "-scale", strconv.Itoa(dayScale), "-seed", strconv.FormatInt(seed, 10)}
		},
		scale:          dayScale,
		section:        "=== Day-in-the-life:",
		throughput:     "sim_minstr_per_s",
		throughputUnit: "Minstr/s",
		work: func(output) (float64, error) {
			burst := options(dayScale, 0).Instructions() / daySessions
			return float64(daySchemes*daySessions) * float64(burst) / 1e6, nil
		},
		exhibit: func(opts experiments.Options) error {
			_, err := experiments.DayInTheLife(opts)
			return err
		},
	},
}

// options returns the harness options paperbench builds for a scale and
// seed (telemetry and checking left to the caller).
func options(scale int, seed int64) experiments.Options {
	return experiments.Options{Scale: scale, Seed: seed}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
