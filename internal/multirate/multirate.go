// Package multirate implements the retention-aware refresh baselines the
// paper compares against in Section VII — RAIDR-style multi-rate row
// binning, RAPID-style retention-aware page allocation, Flikker-style
// critical/non-critical partitioning, and SECRET-style per-cell error
// patching — together with the failure mode that undermines all
// profiling-based schemes: Variable Retention Time (VRT), where a cell's
// retention degrades after it was profiled. MECC needs no profile, so
// VRT cells are just more random failures inside its ECC-6 budget.
package multirate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/retention"
)

// Errors returned by profile and scheme construction.
var (
	ErrBadBins    = errors.New("multirate: bins must be increasing multiples of the base period")
	ErrBadProfile = errors.New("multirate: invalid profile parameters")
)

// RowProfile holds the profiled minimum retention time per row — what an
// offline RAIDR/RAPID/SECRET characterization pass would measure.
type RowProfile struct {
	// MinRetention[r] is row r's weakest-cell retention time.
	MinRetention []time.Duration
}

// SampleRowProfile draws a synthetic retention profile for nRows rows of
// cellsPerRow cells from the retention model: the row minimum follows
// P(min < T) = 1 - (1 - BER(T))^cells, sampled by inverse transform.
func SampleRowProfile(model *retention.Model, nRows, cellsPerRow int, seed int64) (*RowProfile, error) {
	if nRows <= 0 || cellsPerRow <= 0 {
		return nil, fmt.Errorf("%w: rows=%d cells=%d", ErrBadProfile, nRows, cellsPerRow)
	}
	rng := rand.New(rand.NewSource(seed))
	p := &RowProfile{MinRetention: make([]time.Duration, nRows)}
	for r := range p.MinRetention {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		// Solve 1-(1-BER(T))^n = u  =>  BER(T) = 1-(1-u)^(1/n), then
		// invert the power-law BER model.
		ber := 1 - math.Pow(1-u, 1/float64(cellsPerRow))
		p.MinRetention[r] = model.PeriodFor(ber)
	}
	return p, nil
}

// RAIDR bins rows by profiled retention and refreshes each bin at the
// longest safe period (Liu et al., ISCA'12). No ECC: correctness relies
// entirely on the profile staying true.
type RAIDR struct {
	bins   []time.Duration
	rowBin []int
}

// NewRAIDR assigns every row the longest bin period not exceeding its
// profiled minimum retention (with the mandatory fallback to bins[0],
// the JEDEC period, for rows weaker than any relaxed bin).
func NewRAIDR(profile *RowProfile, bins []time.Duration) (*RAIDR, error) {
	if len(bins) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 bins", ErrBadBins)
	}
	if !sort.SliceIsSorted(bins, func(i, j int) bool { return bins[i] < bins[j] }) {
		return nil, fmt.Errorf("%w: not sorted", ErrBadBins)
	}
	r := &RAIDR{bins: bins, rowBin: make([]int, len(profile.MinRetention))}
	for row, ret := range profile.MinRetention {
		bin := 0
		for b := len(bins) - 1; b > 0; b-- {
			if ret >= bins[b] {
				bin = b
				break
			}
		}
		r.rowBin[row] = bin
	}
	return r, nil
}

// RefreshRateNorm returns the scheme's refresh-operation rate relative
// to refreshing everything at bins[0].
func (r *RAIDR) RefreshRateNorm() float64 {
	base := r.bins[0].Seconds()
	var sum float64
	for _, b := range r.rowBin {
		sum += base / r.bins[b].Seconds()
	}
	return sum / float64(len(r.rowBin))
}

// RowPeriod returns the refresh period assigned to a row.
func (r *RAIDR) RowPeriod(row int) time.Duration { return r.bins[r.rowBin[row]] }

// SilentFailuresUnderVRT counts VRT episodes that cause silent data loss:
// a cell whose retention degraded to `degraded` fails silently when its
// row's assigned period exceeds the degraded retention — there is no ECC
// to catch it. Cells are placed on uniformly random rows.
func (r *RAIDR) SilentFailuresUnderVRT(nCells int, degraded time.Duration, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	failures := 0
	for i := 0; i < nCells; i++ {
		row := rng.Intn(len(r.rowBin))
		if r.RowPeriod(row) > degraded {
			failures++
		}
	}
	return failures
}

// Flikker models Liu et al.'s ASPLOS'11 critical/non-critical partition:
// the critical fraction refreshes at the base period, the rest at the
// relaxed period, and errors in the non-critical region are exposed to
// the application.
type Flikker struct {
	// CriticalFraction is the memory share that must stay error-free.
	CriticalFraction float64
	// Base and Relaxed are the two refresh periods.
	Base, Relaxed time.Duration
}

// NewFlikker validates and builds the model.
func NewFlikker(criticalFraction float64, base, relaxed time.Duration) (*Flikker, error) {
	if criticalFraction < 0 || criticalFraction > 1 || relaxed <= base || base <= 0 {
		return nil, fmt.Errorf("%w: fraction=%v base=%v relaxed=%v",
			ErrBadProfile, criticalFraction, base, relaxed)
	}
	return &Flikker{CriticalFraction: criticalFraction, Base: base, Relaxed: relaxed}, nil
}

// RefreshRateNorm returns the effective refresh rate relative to
// refreshing everything at the base period — the paper's Amdahl point:
// with 1/4 critical at rate 1 and 3/4 at 1/16, the effective rate is
// still ≈ 0.30.
func (f *Flikker) RefreshRateNorm() float64 {
	ratio := f.Base.Seconds() / f.Relaxed.Seconds()
	return f.CriticalFraction + (1-f.CriticalFraction)*ratio
}

// SECRET models Shen et al.'s ICCD'12 scheme: cells profiled as failing
// at the relaxed period get dedicated correction resources; everything
// refreshes slowly. Like RAIDR it trusts the profile, so VRT cells that
// degrade after profiling fail silently.
type SECRET struct {
	// PatchedCells is the number of profiled weak cells given patch
	// storage (the scheme's overhead scales with this).
	PatchedCells int
	// Relaxed is the slow refresh period.
	Relaxed time.Duration
}

// NewSECRET sizes the patch table for a memory of totalBits at the
// relaxed period's BER.
func NewSECRET(model *retention.Model, totalBits float64, relaxed time.Duration) (*SECRET, error) {
	if relaxed <= 0 || totalBits <= 0 {
		return nil, fmt.Errorf("%w: relaxed=%v bits=%v", ErrBadProfile, relaxed, totalBits)
	}
	return &SECRET{
		PatchedCells: int(model.BER(relaxed) * totalBits),
		Relaxed:      relaxed,
	}, nil
}

// RefreshRateNorm returns refresh rate relative to the base period.
func (s *SECRET) RefreshRateNorm(base time.Duration) float64 {
	return base.Seconds() / s.Relaxed.Seconds()
}

// SilentFailuresUnderVRT counts VRT episodes causing silent loss: every
// VRT cell that was healthy at profiling time (and so is unpatched)
// whose degraded retention falls below the relaxed period fails.
func (s *SECRET) SilentFailuresUnderVRT(nCells int, degraded time.Duration) int {
	if degraded >= s.Relaxed {
		return 0
	}
	return nCells
}
