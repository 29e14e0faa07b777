package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bch"
	"repro/internal/line"
)

// fig7Seed1 is paperbench's stdout for `-experiment fig7 -seed 1`.
func fig7Seed1(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "fig7_seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// goodRun wraps an output text as a good paperbench run.
func goodRun(text string) *invocation {
	return &invocation{out: output{text: text}, digest: digest(text)}
}

func TestStoredDigestMatchesRecordedOutput(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	if failed := judge(workloads["fig7"], 1, []*invocation{goodRun(fig7Seed1(t))}, d); failed != 0 {
		t.Fatalf("recorded seed-1 output failed its stored digest")
	}
}

func TestPerturbedOutputCountsAsFailed(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	good := fig7Seed1(t)
	const row = "ALL                   0.993   0.895  0.988"
	if !strings.Contains(good, row) {
		t.Fatalf("recorded output lacks %q", row)
	}
	bad := strings.Replace(good, row, "ALL                   0.993   0.896  0.988", 1)
	w := workloads["fig7"]

	// A seed with a stored digest: the one perturbed run fails.
	runs := []*invocation{goodRun(good), goodRun(bad), goodRun(good)}
	if failed := judge(w, 1, runs, d); failed != 1 || runs[1].err == nil {
		t.Fatalf("stored seed: failed = %d, perturbed err = %v; want 1 failure on the perturbed run", failed, runs[1].err)
	}
	// A seed with no stored digest: the run that disagrees with the rest fails.
	runs = []*invocation{goodRun(good), goodRun(good), goodRun(bad)}
	if failed := judge(w, 424242, runs, digests{}); failed != 1 || runs[2].err == nil {
		t.Fatalf("unstored seed: failed = %d, perturbed err = %v; want 1 failure on the perturbed run", failed, runs[2].err)
	}
	// A nonzero exit and a missing exhibit fail too.
	crashed := goodRun(good)
	crashed.err = errors.New("exit status 1")
	empty := goodRun("\n=== Run summary ===\n")
	if failed := judge(w, 1, []*invocation{crashed, empty}, d); failed != 2 {
		t.Fatalf("crashed and empty runs: failed = %d, want 2", failed)
	}
}

func TestSilentCorruptionCountsAsFailed(t *testing.T) {
	w := workloads["integrity"]
	ok := "\n=== Integrity: end-to-end fault injection through the real codecs ===\nSILENT CORRUPTIONS             0        \n"
	bad := strings.Replace(ok, "0        \n", "3        \n", 1)
	if failed := judge(w, 7, []*invocation{goodRun(ok), goodRun(ok)}, digests{}); failed != 0 {
		t.Fatalf("clean runs: failed = %d", failed)
	}
	runs := []*invocation{goodRun(bad), goodRun(bad)}
	if failed := judge(w, 7, runs, digests{}); failed != 2 {
		t.Fatalf("corrupting runs: failed = %d, want 2 (%v)", failed, runs[0].err)
	}
}

func TestCanonicalMasksHostDependentText(t *testing.T) {
	a := "=== Table III: benchmark characterization (measured, scale 1/400, 1.234s) ===\nrow 1\n\n" +
		"=== Run summary ===\nexperiment  wall  \n----------  ------\ntable3      1.234s\ntotal       1.234s\n\n" +
		"counter             value\n------------------  -----\nbatch_chunks_total  200\nbatch_items_total   400\n"
	b := "=== Table III: benchmark characterization (measured, scale 1/400, 987ms) ===\nrow 1\n\n" +
		"=== Run summary ===\nexperiment  wall \n----------  -----\ntable3      987ms\ntotal       987ms\n\n" +
		"counter                   value\n------------------------  -----\nbatch_inline_calls_total  100\nbatch_items_total         400\n"
	if digest(a) != digest(b) {
		t.Fatalf("wall times or pool shape leak into the digest:\n%s\nvs\n%s", canonical(a), canonical(b))
	}
	if c := strings.Replace(a, "batch_items_total   400", "batch_items_total   401", 1); digest(c) == digest(a) {
		t.Fatalf("a result counter is masked")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/obs.(*FlightRecorder).Record":         "obs",
		"repro/internal/obs/httpserv.(*Server).serve":         "obs",
		"repro/internal/sim.(*Runner).runLoop.func1 (inline)": "sim",
		"runtime.mallocgc":                                           "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                     "runtime",
		"sync/atomic.(*Int64).Add":                                   "sync",
		"sync.(*Mutex).Lock":                                         "sync",
		"sync/atomic.(*Pointer[go.shape.struct { a/b.c int }]).Load": "sync",
		"math/rand.(*Rand).Int63":                                    "other",
		"main.run":                                                   "other",
		"repro/internal/batch.For[go.shape.func(int, int)]":          "batch",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// topText builds `go tool pprof -top -unit=ms` text: a header claiming
// total ms and one row per function with its flat ms.
func topText(total int, rows map[string]int) string {
	var b strings.Builder
	listed := 0
	for _, ms := range rows {
		listed += ms
	}
	fmt.Fprintf(&b, "Type: cpu\nShowing nodes accounting for %dms, %.2f%% of %dms total\n", listed, 100*float64(listed)/float64(total), total)
	b.WriteString("      flat  flat%   sum%        cum   cum%\n")
	for fn, ms := range rows {
		fmt.Fprintf(&b, "%8dms %5.2f%% %5.2f%% %8dms %5.2f%%  %s\n", ms, 0.0, 0.0, ms, 0.0, fn)
	}
	return b.String()
}

// TestFoldManySmallFunctions folds a profile whose obs layer is 300
// functions of 10 ms each: every one under pprof's default 0.5% node
// cut-off. The fold must give obs its full share, and must refuse a -top
// listing from which those nodes were dropped instead of handing their
// share to the layers that are left.
func TestFoldManySmallFunctions(t *testing.T) {
	rows := map[string]int{"repro/internal/dram.(*Channel).Issue": 5000, "runtime.mallocgc": 1000}
	for i := 0; i < 300; i++ {
		rows[fmt.Sprintf("repro/internal/obs.f%d", i)] = 10
	}
	shares, err := foldTop(topText(9000, rows))
	if err != nil {
		t.Fatal(err)
	}
	for layer, want := range map[string]float64{"obs": 3.0 / 9, "dram": 5.0 / 9, "runtime": 1.0 / 9} {
		if math.Abs(shares[layer]-want) > 1e-9 {
			t.Errorf("%s share = %v, want %v (%v)", layer, shares[layer], want, shares)
		}
	}
	for fn := range rows {
		if strings.HasPrefix(fn, "repro/internal/obs.") {
			delete(rows, fn)
		}
	}
	if shares, err := foldTop(topText(9000, rows)); err == nil {
		t.Fatalf("fold of a listing without its small nodes succeeded: %v", shares)
	}
}

// TestFoldOwnProfile profiles a BCH decode loop beside a loop spread over
// many small standard-library functions, folds the profile with
// `go tool pprof -top`, and checks that nothing was dropped, that the
// shares sum to 1, and that they land on the bch package and "other".
func TestFoldOwnProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for two seconds")
	}
	code, err := bch.New(6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var data line.Line
	for i := range data {
		data[i] = rng.Uint64()
	}
	parity := code.Encode(data)
	noisy := data.FlipBit(3).FlipBit(100).FlipBit(200).FlipBit(300).FlipBit(400).FlipBit(500)

	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var decodeErr, smallErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		for start := time.Now(); time.Since(start) < 2*time.Second; {
			if got, _ := code.Decode(noisy, parity); got != data {
				decodeErr = errors.New("decode failed")
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		smallErr = smallFunctions(2 * time.Second)
	}()
	wg.Wait()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if decodeErr != nil || smallErr != nil {
		t.Fatal(decodeErr, smallErr)
	}

	top, err := pprofTop(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(top, "Dropped") {
		t.Fatalf("pprof -top dropped nodes:\n%s", top)
	}
	shares, err := foldTop(top)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
	// The decode loop is bch's, whatever the instrumentation (under -race
	// the sanitizer's own functions land in "other").
	for layer, s := range shares {
		if layer != "bch" && layer != "other" && s >= shares["bch"] {
			t.Fatalf("%s share %.2f >= bch share %.2f in a BCH decode loop: %v", layer, s, shares["bch"], shares)
		}
	}
	if shares["other"] == 0 {
		t.Fatalf("the standard-library loop has no share: %v", shares)
	}

	// pprof's default cut-off drops the smallest of those functions; a
	// listing that lost them must be refused, not renormalised.
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms", path).Output()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "Dropped") {
		if _, err := foldTop(string(out)); err == nil {
			t.Fatalf("fold accepted a listing with dropped nodes:\n%s", out)
		}
	}
}

// smallFunctions spends d in work that spreads over many small
// standard-library functions: JSON, formatting, parsing and sorting.
func smallFunctions(d time.Duration) error {
	type rec struct {
		Name string            `json:"name"`
		Vals []float64         `json:"vals"`
		Tags map[string]string `json:"tags"`
	}
	for i, start := 0, time.Now(); time.Since(start) < d; i++ {
		r := rec{Name: fmt.Sprintf("rec-%d", i), Vals: []float64{float64(i), 1.5, -2e9}, Tags: map[string]string{"k": strconv.Itoa(i)}}
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		var back rec
		if err := json.Unmarshal(b, &back); err != nil {
			return err
		}
		words := strings.Fields(strings.Repeat(back.Name+" ", 8))
		sort.Strings(words)
		if _, err := strconv.ParseFloat(strconv.FormatFloat(back.Vals[2], 'g', -1, 64), 64); err != nil {
			return err
		}
	}
	return nil
}
