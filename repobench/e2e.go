package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// endToEnd times paperbench runs of the workload back to back until the
// time budget is spent (at least one run), checks each run's output, and
// reports the medians over the good runs. Set-up time comes from set-up
// probes interleaved with the timed runs. The reference kernel is timed
// before every run and every batch of probes; wall times are scaled by
// refWall over the median of its wall times, CPU times by refCPU over the
// median of its CPU times.
func endToEnd(w *workloadSpec, seed int64, bin string, budget time.Duration, d digests) (result, error) {
	args := w.args(seed)
	probe := setupProbeArgs(args)
	var runs []*invocation
	var refWalls, refCPUs, setup []float64
	sampleRef := func() error {
		w, c, err := reference()
		refWalls, refCPUs = append(refWalls, w.Seconds()), append(refCPUs, c.Seconds())
		return err
	}
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < budget {
		if err := sampleRef(); err != nil {
			return result{}, err
		}
		runs = append(runs, invoke(bin, args))
		// Keep the probes in step with the share of the budget spent, so
		// that they sample the whole run and not one stretch of it.
		spent := min(time.Since(start).Seconds()/budget.Seconds(), 1)
		if float64(len(setup)) >= spent*setupProbes {
			continue
		}
		if err := sampleRef(); err != nil {
			return result{}, err
		}
		for float64(len(setup)) < spent*setupProbes {
			inv := invoke(bin, probe)
			if inv.err != nil {
				return result{}, fmt.Errorf("set-up probe: %w", inv.err)
			}
			setup = append(setup, inv.setup().Seconds())
		}
	}
	failed := judge(w, seed, runs, d)

	var wall, cpu, rss, rate, mecc, ecc6 []float64
	for i, inv := range runs {
		status := "ok"
		if inv.err != nil {
			status = "FAILED: " + inv.err.Error()
		}
		fmt.Printf("run %d: wall=%.3fs setup=%.4fs cpu=%.3fs rss=%.1fMB digest=%s %s\n",
			i+1, inv.wall.Seconds(), inv.setup().Seconds(), inv.cpu.Seconds(), inv.rssMB, inv.digest, status)
		if inv.err != nil {
			continue
		}
		work, err := w.work(inv.out)
		if err != nil {
			return result{}, err
		}
		exhibit := inv.out.exhibitWall.Seconds()
		wall = append(wall, inv.wall.Seconds())
		cpu = append(cpu, inv.cpu.Seconds())
		rss = append(rss, inv.rssMB)
		rate = append(rate, work/exhibit)
		if w.name == "fig7" {
			m, e6, err := fig7Slowdowns(inv.out.text)
			if err != nil {
				return result{}, err
			}
			mecc, ecc6 = append(mecc, m), append(ecc6, e6)
		}
	}
	if len(wall) == 0 {
		return result{}, fmt.Errorf("all %d paperbench runs failed; first: %v", len(runs), runs[0].err)
	}
	fmt.Printf("set-up probes: %d runs of %s\n", len(setup), strings.Join(probe, " "))
	// The scales convert host seconds to seconds at the reference speed.
	wallScale := refWall.Seconds() / median(refWalls)
	cpuScale := refCPU.Seconds() / median(refCPUs)
	fmt.Printf("reference: %d samples, median wall %.4fs and CPU %.4fs, so wall times are scaled by %.4f and CPU times by %.4f\n",
		len(refWalls), median(refWalls), median(refCPUs), wallScale, cpuScale)
	fmt.Printf("as measured, not scaled: wall_s %.6g, cpu_s %.6g, setup_s %.6g, throughput_m_per_s %.6g\n",
		median(wall), median(cpu), median(setup), median(rate))
	// The workload-specific names are printed beside the generic metrics
	// they equal; the JSON line carries only the generic ones, which every
	// workload has.
	fmt.Printf("%-34s %14.6g %s (= throughput_m_per_s)\n", w.throughput, median(rate)/wallScale, w.throughputUnit)
	if len(mecc) > 0 {
		fmt.Printf("%-34s %14.6g %% (simulated, ALL-row geomean)\n", "mecc_slowdown_pct", median(mecc))
		fmt.Printf("%-34s %14.6g %% (simulated, ALL-row geomean)\n", "ecc6_slowdown_pct", median(ecc6))
	}
	return result{
		Correct:   failed == 0,
		Attempted: len(runs),
		Failed:    failed,
		Metrics: map[string]metric{
			"wall_s":             {median(wall) * wallScale, "s"},
			"setup_s":            {median(setup) * wallScale, "s"},
			"cpu_s":              {median(cpu) * cpuScale, "s"},
			"peak_rss_mb":        {median(rss), "MB"},
			"throughput_m_per_s": {median(rate) / wallScale, "M/s"},
		},
	}, nil
}

// setupProbes is how many extra paperbench runs sample set-up time. A
// fig7 run fits only four or five timed runs, too few for a steady
// median of a ~4 ms quantity; and a timed run's wall outside its exhibit
// also holds the exit-time summary, which grows with the exhibit. A probe
// takes ~5 ms; on a 2-vCPU VM the median of 10 probes spread by 14% from
// one batch to the next, the median of 200 by 3%.
const setupProbes = 200

// setupProbeArgs swaps the workload's exhibit for Table II, which prints a
// constant table, and keeps its other arguments: the probe does the same
// set-up as the workload (process start, flag parsing, recorder, flight
// ring and suite set-up, codec tables) and almost no exhibit work.
func setupProbeArgs(args []string) []string {
	probe := append([]string(nil), args...)
	for i := 0; i+1 < len(probe); i++ {
		if probe[i] == "-experiment" {
			probe[i+1] = "table2"
		}
	}
	return probe
}

// fig7Slowdowns reads Fig. 7's ALL row and returns the MECC and ECC-6
// slowdowns, 1 - normalized IPC, in percent.
func fig7Slowdowns(text string) (mecc, ecc6 float64, err error) {
	for _, l := range strings.Split(text, "\n") {
		f := strings.Fields(l)
		if len(f) == 4 && f[0] == "ALL" {
			var sec, e6, m float64
			if _, err := fmt.Sscan(strings.Join(f[1:], " "), &sec, &e6, &m); err != nil {
				return 0, 0, fmt.Errorf("fig7 ALL row %q: %w", l, err)
			}
			return (1 - m) * 100, (1 - e6) * 100, nil
		}
	}
	return 0, 0, fmt.Errorf("fig7 output has no ALL row")
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs must be non-empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
