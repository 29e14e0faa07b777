// Package workload provides the simulator's 28 synthetic benchmark
// profiles and the generator that turns a profile into a memory-access
// stream. The profiles carry the names and MPKI classes of the SPEC2006
// workloads the paper evaluates (Fig. 7's ordering); their MPKI, IPC and
// footprint parameters are calibrated so the three class averages match
// the paper's Table III (Low: MPKI 0.3 / IPC 1.51 / 26 MB; Med: 4.7 /
// 0.89 / 96 MB; High: 23.5 / 0.36 / 259 MB). The paper's actual traces
// are not distributable; DESIGN.md records this substitution.
package workload

import (
	"errors"
	"fmt"
)

// ErrUnknownBenchmark reports a name outside the 28-benchmark suite.
var ErrUnknownBenchmark = errors.New("workload: unknown benchmark")

// Class buckets benchmarks by memory intensity (paper Section IV-B).
type Class int

// MPKI classes.
const (
	// LowMPKI is MPKI < 1.
	LowMPKI Class = iota + 1
	// MedMPKI is 1 <= MPKI <= 10.
	MedMPKI
	// HighMPKI is MPKI > 10.
	HighMPKI
)

// String renders the class as in the paper's figures.
func (c Class) String() string {
	switch c {
	case LowMPKI:
		return "Low-MPKI"
	case MedMPKI:
		return "Med-MPKI"
	case HighMPKI:
		return "High-MPKI"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ClassOf buckets an MPKI value.
func ClassOf(mpki float64) Class {
	switch {
	case mpki < 1:
		return LowMPKI
	case mpki <= 10:
		return MedMPKI
	default:
		return HighMPKI
	}
}

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	// Name is the SPEC2006 benchmark name.
	Name string
	// MPKI is the target LLC read-miss rate per kilo-instruction.
	MPKI float64
	// BaseCPI is the CPI of non-memory work on the 2-wide in-order core
	// (>= 0.5); memory stalls add on top.
	BaseCPI float64
	// FootprintMB is the touched memory in MB (Table III's metric:
	// unique 4 KB pages).
	FootprintMB int
	// SeqProb is the probability that an access continues a sequential
	// run (row-buffer locality knob).
	SeqProb float64
	// WriteFrac is the ratio of writebacks to read misses.
	WriteFrac float64
	// Fragments is the number of disjoint address regions the footprint
	// is scattered across (drives MDT occupancy beyond raw footprint).
	Fragments int
	// BurstMult, when > 1, gives the workload program phases: for
	// BurstLenInstr out of every BurstPeriodInstr instructions the miss
	// rate is BurstMult times higher, compensated in between so the
	// average MPKI is unchanged. SPEC programs are phasey; this is what
	// lets a low-average-MPKC benchmark (namd, gobmk) trip the SMD
	// threshold in some windows (paper Fig. 14) while povray-class
	// benchmarks never do.
	BurstMult                       float64
	BurstLenInstr, BurstPeriodInstr int64
	// FootprintLinesOverride, when nonzero, supersedes FootprintMB as
	// the working-set size in cache lines. Scaled sets it so that
	// sub-megabyte scaled footprints keep the exact cold-line to
	// total-miss ratio of the full-scale run.
	FootprintLinesOverride uint64
}

// FootprintLines returns the working-set size in 64 B cache lines.
func (p Profile) FootprintLines() uint64 {
	if p.FootprintLinesOverride != 0 {
		return p.FootprintLinesOverride
	}
	return uint64(p.FootprintMB) << 20 / 64
}

// Class returns the profile's MPKI class.
func (p Profile) Class() Class { return ClassOf(p.MPKI) }

// Scaled shrinks the profile's footprint by the given divisor (min 1 MB),
// for reduced-scale runs: when the harness simulates 4e9/divisor
// instructions instead of the paper's 4 billion, shrinking the footprint
// by the same factor preserves the ratio of cold-transient to
// steady-state accesses that MECC's first-touch downgrade cost depends
// on. MPKI, locality and CPI are scale-invariant and stay unchanged.
func (p Profile) Scaled(divisor int) Profile {
	if divisor <= 1 {
		return p
	}
	lines := p.FootprintLines() / uint64(divisor)
	if lines < 64 {
		lines = 64
	}
	p.FootprintLinesOverride = lines
	scaledMB := int(lines * 64 >> 20)
	if scaledMB < 1 {
		scaledMB = 1
	}
	if p.Fragments > scaledMB {
		p.Fragments = scaledMB
	}
	p.BurstLenInstr /= int64(divisor)
	p.BurstPeriodInstr /= int64(divisor)
	return p
}

// profiles is ordered exactly as the paper's Fig. 7 x-axis.
var profiles = []Profile{
	// Low-MPKI (8): compute-bound.
	{Name: "povray", MPKI: 0.05, BaseCPI: 0.52, FootprintMB: 5, SeqProb: 0.50, WriteFrac: 0.25, Fragments: 2},
	{Name: "tonto", MPKI: 0.15, BaseCPI: 0.57, FootprintMB: 30, SeqProb: 0.50, WriteFrac: 0.30, Fragments: 3},
	{Name: "wrf", MPKI: 0.35, BaseCPI: 0.70, FootprintMB: 90, SeqProb: 0.70, WriteFrac: 0.35, Fragments: 4},
	{Name: "gamess", MPKI: 0.05, BaseCPI: 0.53, FootprintMB: 6, SeqProb: 0.50, WriteFrac: 0.25, Fragments: 2},
	{Name: "hmmer", MPKI: 0.30, BaseCPI: 0.59, FootprintMB: 12, SeqProb: 0.60, WriteFrac: 0.30, Fragments: 2},
	{Name: "sjeng", MPKI: 0.40, BaseCPI: 0.91, FootprintMB: 40, SeqProb: 0.20, WriteFrac: 0.30, Fragments: 3},
	{Name: "h264ref", MPKI: 0.55, BaseCPI: 0.63, FootprintMB: 15, SeqProb: 0.60, WriteFrac: 0.30, Fragments: 2},
	{Name: "namd", MPKI: 0.55, BaseCPI: 0.58, FootprintMB: 10, SeqProb: 0.60, WriteFrac: 0.25, Fragments: 2,
		BurstMult: 3.5, BurstLenInstr: 800_000_000, BurstPeriodInstr: 4_000_000_000},
	// Med-MPKI (13).
	{Name: "gobmk", MPKI: 1.2, BaseCPI: 0.75, FootprintMB: 28, SeqProb: 0.35, WriteFrac: 0.30, Fragments: 3,
		BurstMult: 2.5, BurstLenInstr: 800_000_000, BurstPeriodInstr: 4_000_000_000},
	{Name: "gromacs", MPKI: 1.1, BaseCPI: 0.66, FootprintMB: 20, SeqProb: 0.55, WriteFrac: 0.30, Fragments: 2,
		BurstMult: 2.5, BurstLenInstr: 800_000_000, BurstPeriodInstr: 4_000_000_000},
	{Name: "perl", MPKI: 1.6, BaseCPI: 0.67, FootprintMB: 50, SeqProb: 0.35, WriteFrac: 0.35, Fragments: 4,
		BurstMult: 2, BurstLenInstr: 800_000_000, BurstPeriodInstr: 4_000_000_000},
	{Name: "astar", MPKI: 2.6, BaseCPI: 0.75, FootprintMB: 60, SeqProb: 0.20, WriteFrac: 0.30, Fragments: 4},
	{Name: "bzip2", MPKI: 3.6, BaseCPI: 0.69, FootprintMB: 100, SeqProb: 0.55, WriteFrac: 0.40, Fragments: 3},
	{Name: "dealII", MPKI: 2.9, BaseCPI: 0.66, FootprintMB: 80, SeqProb: 0.50, WriteFrac: 0.30, Fragments: 4},
	{Name: "soplex", MPKI: 8.8, BaseCPI: 0.94, FootprintMB: 250, SeqProb: 0.50, WriteFrac: 0.25, Fragments: 6},
	{Name: "cactus", MPKI: 5.6, BaseCPI: 0.77, FootprintMB: 150, SeqProb: 0.60, WriteFrac: 0.40, Fragments: 4},
	{Name: "calculix", MPKI: 1.9, BaseCPI: 0.61, FootprintMB: 55, SeqProb: 0.60, WriteFrac: 0.30, Fragments: 3},
	{Name: "gcc", MPKI: 6.2, BaseCPI: 0.81, FootprintMB: 140, SeqProb: 0.40, WriteFrac: 0.40, Fragments: 8},
	{Name: "zeusmp", MPKI: 5.1, BaseCPI: 0.74, FootprintMB: 120, SeqProb: 0.65, WriteFrac: 0.35, Fragments: 4},
	{Name: "omnetpp", MPKI: 9.8, BaseCPI: 0.85, FootprintMB: 140, SeqProb: 0.15, WriteFrac: 0.35, Fragments: 6},
	{Name: "sphinx", MPKI: 8.7, BaseCPI: 0.95, FootprintMB: 60, SeqProb: 0.60, WriteFrac: 0.15, Fragments: 3},
	// High-MPKI (7): memory-bound.
	{Name: "milc", MPKI: 18.0, BaseCPI: 0.58, FootprintMB: 380, SeqProb: 0.75, WriteFrac: 0.35, Fragments: 5},
	{Name: "xalanc", MPKI: 13.0, BaseCPI: 0.63, FootprintMB: 190, SeqProb: 0.25, WriteFrac: 0.30, Fragments: 8},
	{Name: "leslie", MPKI: 16.0, BaseCPI: 0.70, FootprintMB: 80, SeqProb: 0.80, WriteFrac: 0.40, Fragments: 3},
	{Name: "libq", MPKI: 26.0, BaseCPI: 0.52, FootprintMB: 34, SeqProb: 0.95, WriteFrac: 0.30, Fragments: 1},
	{Name: "Gems", MPKI: 27.0, BaseCPI: 0.50, FootprintMB: 500, SeqProb: 0.70, WriteFrac: 0.40, Fragments: 6},
	{Name: "lbm", MPKI: 35.0, BaseCPI: 0.50, FootprintMB: 400, SeqProb: 0.90, WriteFrac: 0.45, Fragments: 2},
	{Name: "bwaves", MPKI: 28.0, BaseCPI: 0.50, FootprintMB: 230, SeqProb: 0.85, WriteFrac: 0.35, Fragments: 3},
}

// All returns the 28 profiles in the paper's Fig. 7 order. The slice is a
// copy; callers may modify it.
func All() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// ByName looks up a profile.
func ByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("%w: %q", ErrUnknownBenchmark, name)
}

// Names returns the benchmark names in Fig. 7 order.
func Names() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// ByClass returns the profiles of one MPKI class, preserving order.
func ByClass(c Class) []Profile {
	var out []Profile
	for _, p := range profiles {
		if p.Class() == c {
			out = append(out, p)
		}
	}
	return out
}

// Mobile returns four synthetic mobile-scenario profiles beyond the
// SPEC suite — the workload flavors the paper's introduction motivates
// (app launch, video, browsing, gaming). They are not part of the
// 28-benchmark evaluation; examples and the idlephone scenario use them.
func Mobile() []Profile {
	return []Profile{
		// App launch: bursty, touches a lot of memory once.
		{Name: "appstart", MPKI: 12, BaseCPI: 0.7, FootprintMB: 180, SeqProb: 0.55, WriteFrac: 0.40, Fragments: 10},
		// Video playback: streaming frames, modest CPU.
		{Name: "videoplay", MPKI: 8, BaseCPI: 0.6, FootprintMB: 96, SeqProb: 0.92, WriteFrac: 0.45, Fragments: 2},
		// Web browsing: pointer-heavy with layout bursts.
		{Name: "webbrowse", MPKI: 5, BaseCPI: 0.8, FootprintMB: 120, SeqProb: 0.30, WriteFrac: 0.35, Fragments: 8,
			BurstMult: 3, BurstLenInstr: 400_000_000, BurstPeriodInstr: 2_000_000_000},
		// Game rendering: memory-bound streaming over large assets.
		{Name: "gamerender", MPKI: 20, BaseCPI: 0.55, FootprintMB: 320, SeqProb: 0.80, WriteFrac: 0.35, Fragments: 4},
	}
}

// MobileByName looks up a mobile profile.
func MobileByName(name string) (Profile, error) {
	for _, p := range Mobile() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("%w: %q", ErrUnknownBenchmark, name)
}

// Daemon returns a synthetic profile for the short periodic background
// activity of idle mode (bluetooth checks, network interrupts — paper
// Section VI-B): tiny footprint, low memory traffic.
func Daemon() Profile {
	return Profile{
		Name:        "daemon",
		MPKI:        0.4,
		BaseCPI:     0.8,
		FootprintMB: 2,
		SeqProb:     0.4,
		WriteFrac:   0.3,
		Fragments:   1,
	}
}
