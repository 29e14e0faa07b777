package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The host this benchmark was built on is a 2-vCPU VM on a shared
// machine. Its speed drifts by 25% or more over minutes as other tenants
// come and go, and the drift moves wall, CPU and set-up time together,
// so two ten-run sets of the same commit could differ by more than the
// 0.25 bounds. A fixed reference kernel, timed between the paperbench
// runs, measures the host's speed over the same stretch of time, and the
// end-to-end times are reported at the speed at which the kernel takes
// refWall (wall times) and refCPU (CPU times). Wall and CPU time are
// scaled apart because they drift apart: a busy vCPU stretches the wall
// time of both kernel and program but not their CPU time. The kernel is
// the benchmark's own code and calls nothing in the repository, so a
// change to the program cannot move it.

// refWall and refCPU are about what the kernel takes on an idle 2-vCPU
// Intel Xeon VM (Go 1.24); they only set the scale of the reported times.
const (
	refWall = 90 * time.Millisecond
	refCPU  = 180 * time.Millisecond
)

// The kernel has two loops, one per way the host's tenants slow the
// program. Table lookups that stay in L1 follow the core's speed, which
// the codecs (integrity) depend on; random updates of a 4 MiB buffer
// follow the shared cache and memory, which the simulator's bookkeeping
// (fig7) depends on. README.md gives the trial that chose them.
const (
	refLookups = 10_000_000
	refUpdates = 6_000_000
	refWords   = 1 << 19 // 4 MiB of uint64, split between the goroutines
)

// referenceFlag makes the benchmark program time the kernel, print its
// wall and CPU time in nanoseconds and exit.
const referenceFlag = "-reference"

// reference times the kernel in a child process and returns its wall and
// CPU time. The child keeps the kernel's buffer out of this process: a
// process this one starts reports this one's peak resident set as its own
// when that is larger, so a buffer here would raise peak_rss_mb.
func reference() (wall, cpu time.Duration, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, fmt.Errorf("reference: %w", err)
	}
	cmd := exec.Command(self, referenceFlag)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, fmt.Errorf("reference: %w", err)
	}
	var w, c int64
	if n, _ := fmt.Sscan(string(out), &w, &c); n != 2 || w <= 0 || c <= 0 {
		return 0, 0, fmt.Errorf("reference: bad output %q", out)
	}
	return time.Duration(w), time.Duration(c), nil
}

// timeKernel runs the kernel on GOMAXPROCS goroutines, as wide as
// paperbench's default job pool, and returns its wall time and this
// process's CPU time over it.
func timeKernel() (wall, cpu time.Duration) {
	n := runtime.GOMAXPROCS(0)
	mem := make([]uint64, refWords)
	for i := range mem {
		mem[i] = uint64(i) // fault the pages in before the clock starts
	}
	part := refWords / n
	var wg sync.WaitGroup
	cpu0, start := processCPU(), time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			refKernel(uint64(g)+1, mem[g*part:(g+1)*part])
		}(g)
	}
	wg.Wait()
	return time.Since(start), processCPU() - cpu0
}

// processCPU returns the user+sys CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refKernel multiplies pseudo-random GF(2^10) elements through log and
// antilog tables, then adds pseudo-random words of mem into each other.
// The products feed the writes to mem, so the compiler cannot drop them.
func refKernel(seed uint64, mem []uint64) {
	var exp [2048]uint16
	var log [1024]uint16
	x := uint32(1)
	for i := 0; i < 1023; i++ {
		exp[i], exp[i+1023] = uint16(x), uint16(x)
		log[x] = uint16(i)
		x <<= 1
		if x&1024 != 0 {
			x ^= 1024 | 9 // x^10 + x^3 + 1
		}
	}
	s := seed*0x9e3779b97f4a7c15 | 1
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	var acc uint64
	for i := 0; i < refLookups; i++ {
		r := next()
		a, b := uint16(r&1023)|1, uint16(r>>10&1023)|1
		p := exp[log[a]+log[b]]
		if p&1 != 0 {
			acc += uint64(p)
		} else {
			acc ^= uint64(p) << 3
		}
	}
	for i := 0; i < refUpdates; i++ {
		r := next()
		j := r % uint64(len(mem))
		acc += mem[j]
		mem[j] = acc ^ r
	}
}
