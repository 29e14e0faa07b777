package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/trace"
)

// Generator synthesizes a memory-access stream from a profile: geometric
// instruction gaps targeting the profile's MPKI, sequential runs with
// probability SeqProb (row-buffer locality), uniform jumps within a
// fragmented footprint otherwise, and writebacks trailing reads at
// WriteFrac. It implements trace.Source and is deterministic for a given
// seed. Not safe for concurrent use.
type Generator struct {
	prof Profile
	rng  *rand.Rand
	// Footprint layout: Fragments regions, each regionLines long, with
	// deterministic pseudo-random bases.
	regionBases []uint64
	regionLines uint64
	// meanGap is the expected instruction gap per read.
	meanGap float64
	// Phase behaviour: burstGapMult / calmGapMult scale the gap mean
	// inside and outside burst phases so the average MPKI is preserved.
	burstGapMult, calmGapMult float64
	instrEmitted              int64
	// Current position for sequential runs.
	cur       uint64
	pendingWB []uint64
}

// NewGenerator builds a generator over a memory of totalLines cache
// lines.
func NewGenerator(prof Profile, totalLines uint64, seed int64) (*Generator, error) {
	if prof.MPKI <= 0 || prof.BaseCPI < 0.5 || prof.FootprintMB <= 0 {
		return nil, fmt.Errorf("workload: invalid profile %+v", prof)
	}
	if prof.Fragments <= 0 {
		prof.Fragments = 1
	}
	footLines := prof.FootprintLines()
	if footLines > totalLines {
		return nil, fmt.Errorf("workload: footprint %d MB exceeds memory", prof.FootprintMB)
	}
	g := &Generator{
		prof:         prof,
		rng:          rand.New(rand.NewSource(seed)),
		regionLines:  footLines / uint64(prof.Fragments),
		meanGap:      1000/prof.MPKI - 1,
		burstGapMult: 1,
		calmGapMult:  1,
	}
	if prof.BurstMult > 1 && prof.BurstPeriodInstr > 0 && prof.BurstLenInstr > 0 &&
		prof.BurstLenInstr < prof.BurstPeriodInstr {
		duty := float64(prof.BurstLenInstr) / float64(prof.BurstPeriodInstr)
		if calm := (1 - duty*prof.BurstMult) / (1 - duty); calm > 0 {
			// Gap mean scales inversely with miss rate.
			g.burstGapMult = 1 / prof.BurstMult
			g.calmGapMult = 1 / calm
		}
	}
	if g.regionLines == 0 {
		g.regionLines = 1
	}
	// Scatter fragments across the address space deterministically,
	// non-overlapping by construction: split memory into Fragments
	// equal slots and place one region at a random offset inside each.
	slot := totalLines / uint64(prof.Fragments)
	g.regionBases = make([]uint64, prof.Fragments)
	for i := range g.regionBases {
		maxOff := int64(slot - g.regionLines)
		var off int64
		if maxOff > 0 {
			off = g.rng.Int63n(maxOff)
		}
		g.regionBases[i] = uint64(i)*slot + uint64(off)
	}
	g.cur = g.randomLine()
	return g, nil
}

// randomLine picks a uniform line within the footprint.
func (g *Generator) randomLine() uint64 {
	region := g.rng.Intn(len(g.regionBases))
	return g.regionBases[region] + uint64(g.rng.Int63n(int64(g.regionLines)))
}

// geometricGap draws an instruction gap with the configured mean, scaled
// by the current phase's multiplier.
func (g *Generator) geometricGap() uint32 {
	if g.meanGap <= 0 {
		return 0
	}
	mean := g.meanGap * g.phaseGapMult()
	u := g.rng.Float64()
	for u == 0 {
		u = g.rng.Float64()
	}
	gap := -math.Log(u) * mean
	if gap > math.MaxUint32 {
		gap = math.MaxUint32
	}
	return uint32(gap)
}

// phaseGapMult returns the gap multiplier for the current program phase.
func (g *Generator) phaseGapMult() float64 {
	if g.prof.BurstPeriodInstr <= 0 {
		return 1
	}
	if g.instrEmitted%g.prof.BurstPeriodInstr < g.prof.BurstLenInstr {
		return g.burstGapMult
	}
	return g.calmGapMult
}

// Next implements trace.Source; the stream is unbounded, so callers bound
// it by instruction count.
func (g *Generator) Next() (trace.Record, bool) {
	// Emit a pending writeback (gap 0: writebacks accompany the miss
	// that evicted them).
	if n := len(g.pendingWB); n > 0 {
		addr := g.pendingWB[n-1]
		g.pendingWB = g.pendingWB[:n-1]
		return trace.Record{Op: trace.OpWrite, LineAddr: addr}, true
	}
	// Advance the access pattern.
	if g.rng.Float64() < g.prof.SeqProb {
		g.cur++
		// Wrap within the current region.
		for i, base := range g.regionBases {
			if g.cur >= base && g.cur < base+g.regionLines {
				break
			}
			if i == len(g.regionBases)-1 {
				g.cur = g.randomLine()
			}
		}
	} else {
		g.cur = g.randomLine()
	}
	// Queue a writeback with probability WriteFrac: model a dirty
	// eviction from elsewhere in the footprint.
	if g.rng.Float64() < g.prof.WriteFrac {
		g.pendingWB = append(g.pendingWB, g.randomLine())
	}
	gap := g.geometricGap()
	g.instrEmitted += int64(gap) + 1
	return trace.Record{
		Gap:      gap,
		Op:       trace.OpRead,
		LineAddr: g.cur,
	}, true
}

// Bounded wraps a source and stops after the given instruction budget.
type Bounded struct {
	src       trace.Source
	remaining int64
}

// NewBounded bounds src to at most instructions retired instructions.
func NewBounded(src trace.Source, instructions int64) *Bounded {
	return &Bounded{src: src, remaining: instructions}
}

// Next implements trace.Source.
func (b *Bounded) Next() (trace.Record, bool) {
	if b.remaining <= 0 {
		return trace.Record{}, false
	}
	r, ok := b.src.Next()
	if !ok {
		return trace.Record{}, false
	}
	b.remaining -= int64(r.Gap) + 1
	return r, true
}
