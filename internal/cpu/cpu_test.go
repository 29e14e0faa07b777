package cpu

import (
	"math"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0.4); err == nil {
		t.Error("CPI below 0.5: want error")
	}
	c, err := New(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if c.baseCPI != 0.5 {
		t.Error("BaseCPI")
	}
}

func TestExecuteFractionalCarry(t *testing.T) {
	c, err := New(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// 2-wide: 1 instruction = 0.5 cycles; 3 instructions = 1.5 -> carries.
	c.Execute(1)
	if c.Now() != 0 {
		t.Errorf("after 1 instr: now = %d", c.Now())
	}
	c.Execute(1)
	if c.Now() != 1 {
		t.Errorf("after 2 instr: now = %d", c.Now())
	}
	c.Execute(1000)
	if c.Now() != 501 {
		t.Errorf("after 1002 instr: now = %d", c.Now())
	}
	if c.Retired() != 1002 {
		t.Errorf("retired = %d", c.Retired())
	}
	if got := c.IPC(); math.Abs(got-2.0) > 0.01 {
		t.Errorf("IPC = %v, want ≈ 2", got)
	}
}

func TestStallUntil(t *testing.T) {
	c, err := New(1.0)
	if err != nil {
		t.Fatal(err)
	}
	c.Execute(10)
	c.StallUntil(100)
	if c.Now() != 100 {
		t.Errorf("now = %d", c.Now())
	}
	if c.MemStallCycles() != 90 {
		t.Errorf("stall cycles = %d", c.MemStallCycles())
	}
	// Stalling to the past is a no-op.
	c.StallUntil(50)
	if c.Now() != 100 || c.MemStallCycles() != 90 {
		t.Error("past stall changed state")
	}
}

func TestIPCWithStalls(t *testing.T) {
	c, err := New(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// 1000 instructions at CPI 0.5 = 500 cycles, plus a 500-cycle stall:
	// IPC = 1000/1000 = 1.0.
	c.Execute(500)
	c.StallUntil(c.Now() + 500)
	c.Execute(500)
	if got := c.IPC(); math.Abs(got-1.0) > 0.01 {
		t.Errorf("IPC = %v", got)
	}
	if c.IPC() == 0 {
		t.Error("IPC zero")
	}
}

func TestZeroState(t *testing.T) {
	c, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if c.IPC() != 0 || c.Now() != 0 || c.Retired() != 0 {
		t.Error("fresh core not zeroed")
	}
}

func TestSetBaseCPI(t *testing.T) {
	c, err := New(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetBaseCPI(0.4); err == nil {
		t.Error("CPI below 0.5: want error")
	}
	if err := c.SetBaseCPI(1.25); err != nil {
		t.Fatal(err)
	}
	if c.baseCPI != 1.25 {
		t.Errorf("BaseCPI = %v", c.baseCPI)
	}
	// The fractional carry survives the switch: 1 instr at 0.5 leaves
	// frac 0.5; two more at 1.25 add 2.5 -> now 3 exactly.
	c2, _ := New(0.5)
	c2.Execute(1)
	if err := c2.SetBaseCPI(1.25); err != nil {
		t.Fatal(err)
	}
	c2.Execute(2)
	if c2.Now() != 3 {
		t.Errorf("now = %d, want 3", c2.Now())
	}
}
