package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/bch"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// cpuLayers are the buckets whose CPU share the traced run reports;
// "other" also takes every bucket not named here.
var cpuLayers = []string{"obs", "dram", "memctrl", "sim", "sched", "workload", "cpu", "core",
	"bch", "hamming", "ecc", "batch", "runtime", "sync", "other"}

// perLayer is the traced run. It times one plain and one profiled
// paperbench run of the workload, folds the profile into CPU shares,
// reads the layer counters from the output, and then measures the layers
// in-process: the exhibit with and without telemetry, Fig. 7's jobs one
// by one, and replays of each layer's public functions on the workloads
// where that layer works.
func perLayer(w *workloadSpec, seed int64, bin string, d digests) (result, error) {
	args := w.args(seed)
	profile := filepath.Join(buildDir, w.name+".cpu.pprof")
	plain := invoke(bin, args)
	profiled := invoke(bin, append(append([]string(nil), args...), "-cpuprofile", profile))
	runs := []*invocation{plain, profiled}
	for _, inv := range runs {
		if inv.err != nil { // no output to measure
			return result{}, inv.err
		}
	}
	failed := judge(w, seed, runs, d)
	for _, inv := range runs {
		if inv.err != nil {
			fmt.Println("FAILED:", inv.err)
		}
	}
	fmt.Printf("plain run: wall=%.3fs digest=%s; profiled run: wall=%.3fs digest=%s\n",
		plain.wall.Seconds(), plain.digest, profiled.wall.Seconds(), profiled.digest)
	m := map[string]metric{
		"profile_overhead_pct": {(profiled.wall.Seconds()/plain.wall.Seconds() - 1) * 100, "%"},
	}

	top, err := pprofTop(profile)
	if err != nil {
		return result{}, err
	}
	shares, err := foldTop(top)
	if err != nil {
		return result{}, err
	}
	for _, name := range cpuLayers {
		m[name+".cpu_share"] = metric{0, "share"}
	}
	for name, share := range shares {
		if !slices.Contains(cpuLayers, name) {
			name = "other"
		}
		m[name+".cpu_share"] = metric{m[name+".cpu_share"].Value + share, "share"}
	}
	addCounterMetrics(m, plain.out.counters)

	ex, err := measureExhibit(w, seed)
	if err != nil {
		return result{}, err
	}
	m["obs.overhead_pct"] = metric{ex.overheadPct, "%"}
	m["obs.flight_events"] = metric{float64(ex.flightEvents), "count"}
	m["runtime.alloc_mb"] = metric{ex.allocMB, "MB"}

	jobs := jobMetrics{}
	switch w.name {
	case "fig7":
		jobs, err = timeFig7Jobs(options(w.scale, seed))
		if err != nil {
			return result{}, err
		}
		mecc, ecc6, err := fig7Slowdowns(plain.out.text)
		if err != nil {
			return result{}, err
		}
		// The jobs timed here must be the exhibit's own: their geomeans
		// reproduce its ALL row (printed to 3 decimals).
		if math.Abs(jobs.meccSlowdownPct-mecc) > 0.05 || math.Abs(jobs.ecc6SlowdownPct-ecc6) > 0.05 {
			failed++
			fmt.Printf("FAILED: timed Fig. 7 jobs give slowdowns %.2f%%/%.2f%%, the exhibit %.1f%%/%.1f%%\n",
				jobs.meccSlowdownPct, jobs.ecc6SlowdownPct, mecc, ecc6)
		}
	case "day":
		// One runner at a time on one goroutine: no job pool to time.
		work, err := w.work(plain.out)
		if err != nil {
			return result{}, err
		}
		jobs.hostNsPerInstr = float64(ex.withObs.Nanoseconds()) / (work * 1e6)
	}
	m["sim.job_ms_p50"] = metric{jobs.p50ms, "ms"}
	m["sim.job_ms_p90"] = metric{jobs.p90ms, "ms"}
	m["sim.host_ns_per_instr"] = metric{jobs.hostNsPerInstr, "ns"}
	m["experiments.pool_idle_pct"] = metric{jobs.poolIdlePct, "%"}

	// Each replay runs where its layer works; elsewhere its metrics read 0.
	if w.name == "integrity" {
		zero(m, "ns", "workload.next_ns", "memctrl.request_ns", "core.on_read_ns",
			"obs.record_ns", "obs.record_ns_contended", "obs.counter_add_ns_contended")
		zero(m, "count", "workload.records", "memctrl.requests")
		zero(m, "ratio", "memctrl.jump_ratio", "core.downgrade_ratio")
		zero(m, "cycles", "memctrl.read_wait_cycles")
		zero(m, "ms", "core.enter_idle_ms")
		err = codecTimings(m, seed)
	} else {
		zero(m, "ns", "bch.decode_clean_ns", "bch.decode_t6_ns", "bch.screen_ns_per_line", "ecc.decode_batch_ns_per_line")
		err = replayLayers(m, w, seed)
	}
	if err != nil {
		return result{}, err
	}
	return result{Correct: failed == 0, Attempted: len(runs), Failed: failed, Metrics: m}, nil
}

// zero sets each named metric to 0 in unit.
func zero(m map[string]metric, unit string, names ...string) {
	for _, n := range names {
		m[n] = metric{0, unit}
	}
}

// addCounterMetrics derives the dram, sched and bch metrics from the run
// summary's counters; a layer the workload does not use reads 0.
func addCounterMetrics(m map[string]metric, c map[string]float64) {
	var commands float64
	for k := dram.CmdACT; k <= dram.CmdREFpb; k++ {
		commands += c["dram_"+strings.ToLower(k.String())+"_total"]
	}
	m["dram.commands"] = metric{commands, "count"}
	m["dram.row_hit_ratio"] = metric{0, "ratio"}
	if col := c["dram_rd_total"] + c["dram_wr_total"]; col > 0 {
		// Column accesses that found their row open: each ACT serves a miss.
		m["dram.row_hit_ratio"] = metric{1 - c["dram_act_total"]/col, "ratio"}
	}
	scheduled := c["sched_wheel_scheduled_total"]
	m["sched.wheel_scheduled"] = metric{scheduled, "count"}
	m["sched.cascade_ratio"] = metric{0, "ratio"}
	if scheduled > 0 {
		m["sched.cascade_ratio"] = metric{c["sched_wheel_cascades_total"] / scheduled, "ratio"}
	}
	m["bch.decodes"] = metric{c["bch_decodes_total"], "count"}
}

// attachDefaultObs builds the telemetry paperbench attaches by default — a
// recorder with a 16k-slot flight ring and a progress tracker, which also
// observes the bch and batch layers — and returns it with a detach func.
func attachDefaultObs() (*obs.Recorder, *obs.FlightRecorder, func()) {
	rec := obs.New()
	flight := obs.NewFlightRecorder(obs.DefaultFlightEvents)
	rec.SetFlightRecorder(flight)
	rec.SetProgress(obs.NewProgress())
	bch.SetObserver(rec)
	batch.SetObserver(rec)
	return rec, flight, func() {
		bch.SetObserver(nil)
		batch.SetObserver(nil)
	}
}

// overheadPairs is how many pairs of in-process exhibit runs, one
// without telemetry and one with paperbench's default, obs.overhead_pct
// takes the median over. The order within a pair alternates, so warm-up
// does not always favour the same side.
const overheadPairs = 3

// exhibitTimes is the in-process exhibit run with and without telemetry.
type exhibitTimes struct {
	// overheadPct is the median over the pairs of with/without - 1, in
	// percent; withObs is the median wall with telemetry.
	overheadPct float64
	withObs     time.Duration
	// flightEvents and allocMB belong to the runs with telemetry.
	flightEvents uint64
	allocMB      float64
}

// measureExhibit runs the workload's exhibit in-process in alternating
// pairs: with experiments.Options{Obs: nil}, and with paperbench's
// default telemetry.
func measureExhibit(w *workloadSpec, seed int64) (exhibitTimes, error) {
	var t exhibitTimes
	var ratios, with, allocs []float64
	for p := 0; p < overheadPairs; p++ {
		order := []bool{false, true}
		if p%2 == 1 {
			order = []bool{true, false}
		}
		var plain, obsRun exhibitRun
		for _, telemetry := range order {
			r, err := timeExhibit(w, options(w.scale, seed), telemetry)
			if err != nil {
				return t, err
			}
			if telemetry {
				obsRun = r
			} else {
				plain = r
			}
		}
		ratios = append(ratios, obsRun.took.Seconds()/plain.took.Seconds())
		with = append(with, obsRun.took.Seconds())
		allocs = append(allocs, obsRun.allocMB)
		t.flightEvents = obsRun.flightEvents
		fmt.Printf("in-process exhibit, pair %d: %.3fs without telemetry, %.3fs with paperbench's default\n",
			p+1, plain.took.Seconds(), obsRun.took.Seconds())
	}
	t.overheadPct = (median(ratios) - 1) * 100
	t.withObs = time.Duration(median(with) * float64(time.Second))
	t.allocMB = median(allocs)
	return t, nil
}

// exhibitRun is one in-process exhibit run.
type exhibitRun struct {
	took         time.Duration
	flightEvents uint64
	allocMB      float64
}

// timeExhibit runs the exhibit once after a GC, with paperbench's default
// telemetry attached or with none.
func timeExhibit(w *workloadSpec, opts experiments.Options, telemetry bool) (exhibitRun, error) {
	var flight *obs.FlightRecorder
	if telemetry {
		rec, f, detach := attachDefaultObs()
		defer detach()
		opts.Obs, flight = rec, f
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := w.exhibit(opts); err != nil {
		return exhibitRun{}, err
	}
	r := exhibitRun{took: time.Since(start)}
	runtime.ReadMemStats(&after)
	r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if flight != nil {
		r.flightEvents = flight.Recorded()
	}
	return r, nil
}

// jobMetrics times Fig. 7's simulation jobs.
type jobMetrics struct {
	p50ms, p90ms, hostNsPerInstr, poolIdlePct float64
	// meccSlowdownPct and ecc6SlowdownPct recompute the exhibit's ALL row.
	meccSlowdownPct, ecc6SlowdownPct float64
}

// fig7Kinds is Fig. 7's scheme set, baseline first.
var fig7Kinds = [fig7Schemes]sim.SchemeKind{sim.SchemeBaseline, sim.SchemeSECDED, sim.SchemeECC6, sim.SchemeMECC}

// timeFig7Jobs runs Fig. 7's 112 sim.RunBenchmark jobs over a
// GOMAXPROCS-wide pool with paperbench's default telemetry, timing each.
// The configurations are the harness's (experiments.Options.simConfig).
func timeFig7Jobs(opts experiments.Options) (jobMetrics, error) {
	rec, _, detach := attachDefaultObs()
	defer detach()
	profiles := workload.All()
	type job struct {
		bench, kind int
	}
	var jobs []job
	for b := range profiles {
		for k := range fig7Kinds {
			jobs = append(jobs, job{b, k})
		}
	}
	results := make([]sim.Result, len(jobs))
	took := make([]time.Duration, len(jobs))
	errs := make([]error, len(jobs))
	width := runtime.GOMAXPROCS(0)
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < width; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				cfg := sim.DefaultConfig(fig7Kinds[j.kind], opts.Instructions())
				cfg.Seed = opts.Seed
				cfg.MECC.SMDWindowCycles = max(cfg.MECC.SMDWindowCycles/uint64(opts.Scale), 1)
				cfg.Obs = rec
				t0 := time.Now()
				results[i], errs[i] = sim.RunBenchmark(profiles[j.bench].Scaled(opts.Scale), cfg)
				took[i] = time.Since(t0)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)

	var busy time.Duration
	var instr uint64
	ms := make([]float64, len(jobs))
	for i := range jobs {
		if errs[i] != nil {
			return jobMetrics{}, errs[i]
		}
		busy += took[i]
		instr += results[i].Instructions
		ms[i] = took[i].Seconds() * 1e3
	}
	var e6, mecc []float64
	for i := 0; i < len(jobs); i += fig7Schemes {
		base := results[i].IPC
		e6 = append(e6, results[i+2].IPC/base)
		mecc = append(mecc, results[i+3].IPC/base)
	}
	ge6, err := stats.Geomean(e6)
	if err != nil {
		return jobMetrics{}, err
	}
	gm, err := stats.Geomean(mecc)
	if err != nil {
		return jobMetrics{}, err
	}
	fmt.Printf("fig7 jobs: %d over %d workers in %.3fs\n", len(jobs), width, wall.Seconds())
	return jobMetrics{
		p50ms:           percentile(ms, 0.5),
		p90ms:           percentile(ms, 0.9),
		hostNsPerInstr:  float64(busy.Nanoseconds()) / float64(instr),
		poolIdlePct:     (1 - busy.Seconds()/(float64(width)*wall.Seconds())) * 100,
		meccSlowdownPct: (1 - gm) * 100,
		ecc6SlowdownPct: (1 - ge6) * 100,
	}, nil
}

// percentile returns the nearest-rank p-quantile of xs (non-empty).
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}
