// Package cpu models the baseline processor of Table II: a 1.6 GHz
// in-order core that retires up to two instructions per cycle, expressed
// as a base CPI for non-memory work. Loads that miss the LLC block
// retirement until data (and its ECC decode) returns; stores retire
// through a write buffer without stalling. The model is deliberately
// trace-driven: it advances a cycle clock, it does not execute code.
package cpu

import (
	"errors"
	"fmt"
)

// ErrBadCPI reports a CPI below the 2-wide retire bound.
var ErrBadCPI = errors.New("cpu: base CPI must be >= 0.5")

// Core is the in-order core clock. Not safe for concurrent use.
type Core struct {
	baseCPI float64
	now     uint64
	frac    float64
	retired uint64
	// stall accounting
	memStallCycles uint64
}

// New builds a core with the given non-memory CPI (>= 0.5, the 2-wide
// retire bound).
func New(baseCPI float64) (*Core, error) {
	if baseCPI < 0.5 {
		return nil, fmt.Errorf("%w: %v", ErrBadCPI, baseCPI)
	}
	return &Core{baseCPI: baseCPI}, nil
}

// Now returns the current CPU cycle.
func (c *Core) Now() uint64 { return c.now }

// Retired returns the number of retired instructions.
func (c *Core) Retired() uint64 { return c.retired }

// MemStallCycles returns cycles spent blocked on memory.
func (c *Core) MemStallCycles() uint64 { return c.memStallCycles }

// IPC returns retired instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.now == 0 {
		return 0
	}
	return float64(c.retired) / float64(c.now)
}

// Execute retires n non-memory instructions, advancing the clock by
// n*baseCPI cycles (with exact fractional carry).
func (c *Core) Execute(n uint64) {
	c.frac += float64(n) * c.baseCPI
	whole := uint64(c.frac)
	c.frac -= float64(whole)
	c.now += whole
	c.retired += n
}

// StallUntil blocks the core until the given cycle (a memory load
// returning); earlier cycles are a no-op.
func (c *Core) StallUntil(cycle uint64) {
	if cycle > c.now {
		c.memStallCycles += cycle - c.now
		c.now = cycle
	}
}

// SetBaseCPI changes the non-memory CPI mid-run — the hook behind
// per-phase workload switching and first-order DVFS modelling in the
// scenario framework (a frequency step scales how much non-memory work
// fits in a cycle). The fractional-cycle carry is preserved, so a
// switch never loses or invents partial cycles. The 2-wide retire bound
// still applies.
func (c *Core) SetBaseCPI(cpi float64) error {
	if cpi < 0.5 {
		return fmt.Errorf("%w: %v", ErrBadCPI, cpi)
	}
	c.baseCPI = cpi
	return nil
}
