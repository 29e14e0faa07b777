package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/bch"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/line"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// reps is how many times each replay is timed; the median is reported.
const reps = 5

// stream is a request stream recorded from one workload generator, with
// the CPU cycle each request issued at once replayed through memctrl.
type stream struct {
	prof  workload.Profile
	recs  []trace.Record
	issue []uint64
}

// replayProfiles returns the generator profiles whose request streams the
// traced run replays, each over budget instructions: day's mobile browser
// for one active burst; fig7's one Low-, one Med- and one High-MPKI
// benchmark for a full slice.
func replayProfiles(w *workloadSpec) (profs []workload.Profile, budget int64, err error) {
	if w.name == "day" {
		p, err := workload.MobileByName("webbrowse")
		if err != nil {
			return nil, 0, err
		}
		return []workload.Profile{p.Scaled(dayScale)}, options(dayScale, 0).Instructions() / daySessions, nil
	}
	for _, c := range []workload.Class{workload.LowMPKI, workload.MedMPKI, workload.HighMPKI} {
		profs = append(profs, workload.ByClass(c)[0].Scaled(fig7Scale))
	}
	return profs, options(fig7Scale, 0).Instructions(), nil
}

// recordStream drains a fresh generator until the instruction budget is
// spent, the way the simulator's run loop consumes it.
func recordStream(prof workload.Profile, lines uint64, seed, budget int64) (stream, error) {
	gen, err := workload.NewGenerator(prof, lines, seed)
	if err != nil {
		return stream{}, err
	}
	s := stream{prof: prof}
	for budget > 0 {
		r, _ := gen.Next() // the stream is unbounded
		budget -= int64(r.Gap) + 1
		s.recs = append(s.recs, r)
	}
	return s, nil
}

// medianOf runs f n times and returns the median of its results.
func medianOf(n int, f func() (float64, error)) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		x, err := f()
		if err != nil {
			return 0, err
		}
		xs[i] = x
	}
	return median(xs), nil
}

// replayLayers times the workload, memctrl, core and obs layers from
// outside on streams recorded from the workload's generators.
func replayLayers(m map[string]metric, w *workloadSpec, seed int64) error {
	profs, budget, err := replayProfiles(w)
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig(sim.SchemeMECC, budget)
	lines := cfg.DRAM.TotalLines()
	streams := make([]stream, len(profs))
	records := 0
	for i, p := range profs {
		if streams[i], err = recordStream(p, lines, seed, budget); err != nil {
			return err
		}
		records += len(streams[i].recs)
	}
	m["workload.records"] = metric{float64(records), "count"}

	next, err := medianOf(reps, func() (float64, error) {
		var took time.Duration
		for _, s := range streams {
			gen, err := workload.NewGenerator(s.prof, lines, seed)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			for range s.recs {
				gen.Next()
			}
			took += time.Since(start)
		}
		return float64(took.Nanoseconds()) / float64(records), nil
	})
	if err != nil {
		return err
	}
	m["workload.next_ns"] = metric{next, "ns"}

	var mem memReplay
	reqNs, err := medianOf(reps, func() (float64, error) {
		mem = memReplay{}
		for i := range streams {
			if err := mem.run(&streams[i], cfg); err != nil {
				return 0, err
			}
		}
		return float64(mem.took.Nanoseconds()) / float64(mem.requests), nil
	})
	if err != nil {
		return err
	}
	m["memctrl.request_ns"] = metric{reqNs, "ns"}
	m["memctrl.requests"] = metric{float64(mem.requests), "count"}
	m["memctrl.jump_ratio"] = metric{float64(mem.jumps) / float64(mem.steps), "ratio"}
	m["memctrl.read_wait_cycles"] = metric{float64(mem.readLatency) / float64(mem.readsDone), "cycles"}

	if err := replayCore(m, streams, cfg, w.scale); err != nil {
		return err
	}
	return replayObs(m, streams, cfg)
}

// memReplay accumulates memctrl replays.
type memReplay struct {
	took                   time.Duration
	requests, steps, jumps uint64
	readLatency, readsDone uint64
}

// run replays one stream into a fresh memctrl.Controller over a
// dram.Channel through EnqueueRead/EnqueueWrite/StepOrJump, pacing it
// like the simulator's in-order core: instruction gaps advance the CPU
// clock, writes are posted, and each read blocks until its data returns.
// It records each request's issue cycle into s.issue.
func (r *memReplay) run(s *stream, cfg sim.Config) error {
	ch, err := dram.NewChannel(cfg.DRAM)
	if err != nil {
		return err
	}
	var done bool
	var doneAt uint64
	ctl, err := memctrl.New(ch, cfg.Ctrl, func(req *memctrl.Request) { done, doneAt = true, req.DoneAt })
	if err != nil {
		return err
	}
	c, err := cpu.New(s.prof.BaseCPI)
	if err != nil {
		return err
	}
	ratio := uint64(cfg.DRAM.CPURatio())
	step := func(limit uint64) {
		before := ch.Now()
		ctl.StepOrJump(limit)
		r.steps++
		if ch.Now()-before > 1 {
			r.jumps++
		}
	}
	s.issue = s.issue[:0]
	start := time.Now()
	for _, rec := range s.recs {
		if rec.Gap > 0 {
			c.Execute(uint64(rec.Gap))
		}
		for target := (c.Now() + ratio - 1) / ratio; ch.Now() < target; {
			step(target)
		}
		s.issue = append(s.issue, c.Now())
		if rec.Op == trace.OpWrite {
			for !ctl.CanEnqueueWrite() {
				step(ch.Now() + 1)
			}
			if err := ctl.EnqueueWrite(rec.LineAddr, 0); err != nil {
				return err
			}
		} else {
			for !ctl.CanEnqueueRead() {
				step(^uint64(0))
			}
			done = false
			if err := ctl.EnqueueRead(rec.LineAddr, 0); err != nil {
				return err
			}
			for !done {
				step(^uint64(0))
			}
			c.StallUntil(doneAt * ratio)
		}
		c.Execute(1)
	}
	if _, err := ctl.DrainAll(10_000_000); err != nil {
		return err
	}
	r.took += time.Since(start)
	st := ctl.Stats()
	if st.ReadsDone != st.ReadsEnqueued {
		return fmt.Errorf("memctrl replay of %s: %d of %d reads completed", s.prof.Name, st.ReadsDone, st.ReadsEnqueued)
	}
	r.requests += st.ReadsEnqueued + st.WritesEnqueued
	r.readLatency += st.TotalReadLatency
	r.readsDone += st.ReadsDone
	return nil
}

// replayCore replays each stream's reads and writes, at their issue
// cycles, into a fresh MECC controller in active mode, then times the
// ECC-Upgrade sweep of EnterIdle.
func replayCore(m map[string]metric, streams []stream, cfg sim.Config, scale int) error {
	mc := cfg.MECC
	mc.SMDWindowCycles = max(mc.SMDWindowCycles/uint64(scale), 1) // as the harness scales it
	var calls, reads, downgrades uint64
	var idleMs []float64
	callNs, err := medianOf(reps, func() (float64, error) {
		var took, idle time.Duration
		calls, reads, downgrades = 0, 0, 0
		for _, s := range streams {
			c, err := core.New(mc)
			if err != nil {
				return 0, err
			}
			if err := c.ExitIdle(0); err != nil {
				return 0, err
			}
			start := time.Now()
			for i, rec := range s.recs {
				if rec.Op == trace.OpWrite {
					err = c.OnWrite(rec.LineAddr, s.issue[i])
				} else {
					_, err = c.OnRead(rec.LineAddr, s.issue[i])
				}
				if err != nil {
					return 0, err
				}
			}
			took += time.Since(start)
			start = time.Now()
			if _, err := c.EnterIdle(s.issue[len(s.issue)-1] + 1); err != nil {
				return 0, err
			}
			idle += time.Since(start)
			st := c.Stats()
			calls += uint64(len(s.recs))
			reads += st.StrongReads + st.WeakReads
			downgrades += st.Downgrades
		}
		idleMs = append(idleMs, idle.Seconds()*1e3)
		return float64(took.Nanoseconds()) / float64(calls), nil
	})
	if err != nil {
		return err
	}
	m["core.on_read_ns"] = metric{callNs, "ns"}
	m["core.downgrade_ratio"] = metric{float64(downgrades) / float64(reads), "ratio"}
	m["core.enter_idle_ms"] = metric{median(idleMs), "ms"}
	return nil
}

// maxEvents bounds the replayed event slice; Record calls cycle over it.
const maxEvents = 1 << 16

// recordCalls is how many Record or Add calls each goroutine makes.
const recordCalls = 1 << 20

// replayObs times the flight recorder on the DRAM command events the
// replayed requests produce (one RD or WR per request, stamped with its
// DRAM issue cycle, bank and row), on one goroutine and on nproc, and
// times a shared registry counter under the same contention.
func replayObs(m map[string]metric, streams []stream, cfg sim.Config) error {
	ch, err := dram.NewChannel(cfg.DRAM)
	if err != nil {
		return err
	}
	ratio := uint64(cfg.DRAM.CPURatio())
	var events []obs.Event
	for _, s := range streams {
		for i, rec := range s.recs {
			if len(events) == maxEvents {
				break
			}
			cmd := dram.CmdRD
			if rec.Op == trace.OpWrite {
				cmd = dram.CmdWR
			}
			at := ch.Decode(rec.LineAddr)
			events = append(events, obs.Event{T: s.issue[i] / ratio, Kind: obs.KindDRAMCmd, Cmd: cmd.String(), Bank: at.Bank, Row: at.Row})
		}
	}
	record := func(f *obs.FlightRecorder) {
		for i := 0; i < recordCalls; i++ {
			f.Record(events[i%len(events)])
		}
	}
	g := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	single, err := medianOf(reps, func() (float64, error) {
		f := obs.NewFlightRecorder(obs.DefaultFlightEvents)
		return perCall(contended(1, func() { record(f) })), nil
	})
	if err != nil {
		return err
	}
	shared, err := medianOf(reps, func() (float64, error) {
		f := obs.NewFlightRecorder(obs.DefaultFlightEvents)
		return perCall(contended(g, func() { record(f) })), nil
	})
	if err != nil {
		return err
	}
	add, err := medianOf(reps, func() (float64, error) {
		c := obs.New().Counter("repobench_contended_total")
		return perCall(contended(g, func() {
			for i := 0; i < recordCalls; i++ {
				c.Add(1)
			}
		})), nil
	})
	if err != nil {
		return err
	}
	m["obs.record_ns"] = metric{single, "ns"}
	m["obs.record_ns_contended"] = metric{shared, "ns"}
	m["obs.counter_add_ns_contended"] = metric{add, "ns"}
	return nil
}

// perCall converts the wall time of recordCalls calls per goroutine into
// the time one call takes as its goroutine sees it.
func perCall(d time.Duration) float64 { return float64(d.Nanoseconds()) / recordCalls }

// contended runs fn on g goroutines released together and returns the
// time until the last one finishes.
func contended(g int, fn func()) time.Duration {
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	ready.Add(g)
	done.Add(g)
	for i := 0; i < g; i++ {
		go func() {
			defer done.Done()
			ready.Done()
			<-start
			fn()
		}()
	}
	ready.Wait()
	t0 := time.Now()
	close(start)
	done.Wait()
	return time.Since(t0)
}

// codecLines is how many random lines the codec timings decode.
const codecLines = 4096

// codecTimings times the ECC-6 code (the strong half of MECC's default
// morphable codec) on random lines from the seed: scalar decode of clean
// codewords and of codewords with six flipped data bits, the bit-sliced
// syndrome screen, and the ecc batch decoder. Every decode is checked.
func codecTimings(m map[string]metric, seed int64) error {
	code, err := bch.New(6)
	if err != nil {
		return err
	}
	strong, err := ecc.NewBCH(6, false)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]line.Line, codecLines)
	noisy := make([]line.Line, codecLines)
	parity := make([]uint64, codecLines)
	for i := range data {
		for j := range data[i] {
			data[i][j] = rng.Uint64()
		}
		parity[i] = code.Encode(data[i])
		noisy[i] = data[i]
		for _, bit := range rng.Perm(512)[:6] {
			noisy[i] = noisy[i].FlipBit(bit)
		}
	}
	decode := func(in []line.Line, want int) func() (float64, error) {
		return func() (float64, error) {
			start := time.Now()
			for i := range in {
				got, res := code.Decode(in[i], parity[i])
				if got != data[i] || res.Uncorrectable || res.CorrectedBits != want {
					return 0, fmt.Errorf("bch decode of line %d: %+v", i, res)
				}
			}
			return float64(time.Since(start).Nanoseconds()) / codecLines, nil
		}
	}
	clean, err := medianOf(reps, decode(data, 0))
	if err != nil {
		return err
	}
	t6, err := medianOf(reps, decode(noisy, 6))
	if err != nil {
		return err
	}
	flags := make([]bool, codecLines)
	screen, err := medianOf(reps, func() (float64, error) {
		start := time.Now()
		code.SyndromeScreenBatch(data, parity, flags)
		took := time.Since(start)
		for i, ok := range flags {
			if !ok {
				return 0, fmt.Errorf("bch screen flags clean line %d", i)
			}
		}
		return float64(took.Nanoseconds()) / codecLines, nil
	})
	if err != nil {
		return err
	}
	out := make([]line.Line, codecLines)
	results := make([]ecc.Result, codecLines)
	batchNs, err := medianOf(reps, func() (float64, error) {
		start := time.Now()
		strong.DecodeBatch(noisy, parity, out, results)
		took := time.Since(start)
		for i := range out {
			if out[i] != data[i] || results[i].CorrectedBits != 6 {
				return 0, fmt.Errorf("ecc batch decode of line %d: %+v", i, results[i])
			}
		}
		return float64(took.Nanoseconds()) / codecLines, nil
	})
	if err != nil {
		return err
	}
	m["bch.decode_clean_ns"] = metric{clean, "ns"}
	m["bch.decode_t6_ns"] = metric{t6, "ns"}
	m["bch.screen_ns_per_line"] = metric{screen, "ns"}
	m["ecc.decode_batch_ns_per_line"] = metric{batchNs, "ns"}
	return nil
}
