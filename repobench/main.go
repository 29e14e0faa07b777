// Command repobench is the repository benchmark. It builds cmd/paperbench
// from the source tree it runs in, times one workload with paperbench's
// default flags, checks every exhibit output, and prints a report whose
// last line is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host time of the
// real binary); with -trace 1 they are the per-layer ones: CPU shares from
// a profiled run, replay timings of each layer's public functions, and
// counts. Run it through run.sh from the repository root:
//
//	bash repobench/run.sh --workload fig7 --seed 1 --seconds 45 --trace 0
//
// README.md explains the workloads and what each metric should move.
//
// With the single argument -reference, the program instead times the
// fixed reference kernel of reference.go and prints its wall and CPU
// nanoseconds; the -trace 0 run starts itself that way to measure the
// host's speed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// buildDir holds everything the benchmark builds or writes, relative to
// the repository root it runs in.
const buildDir = ".bench_build"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the report's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 1 && args[0] == referenceFlag {
		wall, cpu := timeKernel()
		fmt.Println(wall.Nanoseconds(), cpu.Nanoseconds())
		return nil
	}
	fs := flag.NewFlagSet("repobench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed, passed to paperbench -seed")
	seconds := fs.Int("seconds", 45, "how long to keep starting timed paperbench runs (-trace 0)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	bin, err := buildPaperbench()
	if err != nil {
		return err
	}
	h := describeHost(bin)
	fmt.Printf("repobench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("host: %s\n", h)
	fmt.Printf("paperbench args: %s\n", strings.Join(withMetrics(w.args(*seed)), " "))

	var res result
	if *trace == 0 {
		res, err = endToEnd(w, *seed, bin, time.Duration(*seconds)*time.Second, digests)
	} else {
		res, err = perLayer(w, *seed, bin, digests)
	}
	if err != nil {
		return err
	}
	printMetrics(res.Metrics)
	fmt.Printf("failed_runs %d of %d\n", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// buildPaperbench compiles cmd/paperbench into the build directory the
// way a user builds it (its default.pgo profile applies).
func buildPaperbench() (string, error) {
	bin := filepath.Join(buildDir, "paperbench")
	out, err := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/paperbench").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("build paperbench: %v\n%s", err, out)
	}
	return bin, nil
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
