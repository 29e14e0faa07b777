package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// output is what one paperbench run produced.
type output struct {
	// text is the run's stdout: the exhibit and its run summary.
	text string
	// exhibitWall sums the exhibits' exp_<name>_wall_seconds gauges.
	exhibitWall time.Duration
	// counters holds the run's unlabelled counters by name.
	counters map[string]float64
}

// invocation is one timed paperbench process.
type invocation struct {
	wall, cpu time.Duration
	rssMB     float64
	out       output
	digest    string
	// err is why the run counts as failed; nil for a good run.
	err error
}

// setup is the part of the wall time outside the exhibits: process start,
// flag parsing, recorder, flight ring and suite set-up, codec tables, and
// the summary and metrics written at exit.
func (inv *invocation) setup() time.Duration { return inv.wall - inv.out.exhibitWall }

// metricsFile is where paperbench writes its registry at exit. The run
// summary on stdout rounds exhibit walls to 1 ms, a fifth of the ~5 ms
// set-up; the metrics file has them at full precision.
var metricsFile = filepath.Join(buildDir, "paperbench.prom")

// withMetrics appends the flag that writes the metrics file.
func withMetrics(args []string) []string {
	return append(append([]string(nil), args...), "-metrics-out", metricsFile)
}

// invoke runs paperbench once and measures it: wall time from start to
// exit, user+sys CPU time and peak resident set from the process's
// rusage.
func invoke(bin string, args []string) *invocation {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, withMetrics(args)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	// paperbench dies with the benchmark, should the benchmark be killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	inv := &invocation{wall: time.Since(start)}
	if cmd.ProcessState == nil {
		inv.err = fmt.Errorf("paperbench did not start: %v", err)
		return inv
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		inv.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		inv.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err != nil {
		inv.err = fmt.Errorf("paperbench %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
		return inv
	}
	inv.out, inv.err = readOutput(stdout.String(), metricsFile)
	inv.digest = digest(inv.out.text)
	return inv
}

// readOutput pairs a run's stdout with the metrics file it wrote.
func readOutput(text, metricsPath string) (output, error) {
	out := output{text: text, counters: map[string]float64{}}
	f, err := os.Open(metricsPath)
	if err != nil {
		return out, err
	}
	defer f.Close()
	scrape, err := obs.ParseProm(f)
	if err != nil {
		return out, fmt.Errorf("%s: %w", metricsPath, err)
	}
	for _, s := range scrape.Samples {
		switch {
		case strings.HasPrefix(s.Name, "exp_") && strings.HasSuffix(s.Name, "_wall_seconds"):
			out.exhibitWall += time.Duration(s.Value * float64(time.Second))
		case len(s.Labels) == 0 && scrape.Families[s.Name].Type == "counter":
			out.counters[s.Name] = s.Value
		}
	}
	if out.exhibitWall <= 0 {
		return out, fmt.Errorf("%s has no exhibit wall time", metricsPath)
	}
	return out, nil
}

// poolShapeCounters describe how the batch pool split work over this
// host's workers, not what the exhibit computed; they vary with
// GOMAXPROCS and stay out of the digest.
var poolShapeCounters = []string{"batch_chunks_total", "batch_inline_calls_total", "batch_pool_"}

// canonical returns the output with its host-dependent text masked: the
// run summary's wall-time table, Table III's measured duration and the
// pool-shape counters. Table rules go and runs of blanks collapse to one,
// so column widths that depended on masked text do not matter either.
func canonical(text string) string {
	var b strings.Builder
	inWalls := false
	for _, l := range strings.Split(text, "\n") {
		f := strings.Fields(l)
		switch {
		case l == "=== Run summary ===":
			inWalls = true
		case inWalls && len(f) == 0:
			inWalls = false
		case inWalls:
			f = f[:1] // keep the exhibit names, drop their walls
		case strings.HasPrefix(l, "=== Table III"):
			if i := strings.LastIndex(l, ", "); i >= 0 {
				f = strings.Fields(l[:i] + ", <wall>) ===")
			}
		case len(f) > 0 && (hasAnyPrefix(f[0], poolShapeCounters) || strings.Trim(l, "- ") == ""):
			continue // pool shape, or a table rule whose width follows the masked text
		}
		b.WriteString(strings.Join(f, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// digest is the hex SHA-256 of the canonical output.
func digest(text string) string {
	sum := sha256.Sum256([]byte(canonical(text)))
	return hex.EncodeToString(sum[:])
}

// digests maps workload -> seed -> stored digest of the canonical output.
type digests map[string]map[string]string

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (digests, error) {
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// judge sets err on every run whose output is wrong and returns how many
// failed. A run fails on a nonzero exit or unparsable output (already
// set by invoke), a missing exhibit section, nonzero silent corruptions,
// or a digest other than the stored one for (workload, seed). For a seed
// with no stored digest the runs must agree with each other: each must
// match the digest most of them share.
func judge(w *workloadSpec, seed int64, runs []*invocation, d digests) int {
	want, stored := d[w.name][strconv.FormatInt(seed, 10)]
	if !stored {
		want = majorityDigest(runs)
	}
	failed := 0
	for _, inv := range runs {
		if inv.err == nil {
			inv.err = checkContent(w, inv.out.text)
		}
		if inv.err == nil && inv.digest != want {
			source := "the other runs'"
			if stored {
				source = "the stored"
			}
			inv.err = fmt.Errorf("output digest %.12s differs from %s %.12s", inv.digest, source, want)
		}
		if inv.err != nil {
			failed++
		}
	}
	return failed
}

// majorityDigest returns the digest most parsed runs produced (ties go
// to the smallest, so the choice does not depend on run order).
func majorityDigest(runs []*invocation) string {
	count := map[string]int{}
	for _, inv := range runs {
		if inv.err == nil {
			count[inv.digest]++
		}
	}
	keys := make([]string, 0, len(count))
	for k := range count {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best := ""
	for _, k := range keys {
		if best == "" || count[k] > count[best] {
			best = k
		}
	}
	return best
}

// checkContent checks what a digest cannot: the exhibit ran, and the
// integrity Monte Carlo reported no silent corruption.
func checkContent(w *workloadSpec, text string) error {
	if !strings.Contains(text, w.section) {
		return fmt.Errorf("output lacks the %q section", w.section)
	}
	for _, l := range strings.Split(text, "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "SILENT" && f[1] == "CORRUPTIONS" && f[2] != "0" {
			return fmt.Errorf("integrity reported %s silent corruptions", f[2])
		}
	}
	return nil
}
