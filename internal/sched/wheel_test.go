package sched

import (
	"math/rand"
	"sort"
	"testing"
)

// naive is the reference scheduler: a flat map of pending deadlines.
type naive struct {
	now      uint64
	deadline map[int32]uint64
	popped   map[int32]bool // matured but not yet popped
}

func newNaive(now uint64) *naive {
	return &naive{now: now, deadline: map[int32]uint64{}, popped: map[int32]bool{}}
}

func (n *naive) schedule(id int32, at uint64) { n.deadline[id] = at }
func (n *naive) cancel(id int32)              { delete(n.deadline, id) }

func (n *naive) next() (uint64, bool) {
	min, ok := uint64(0), false
	for _, at := range n.deadline {
		if !ok || at < min {
			min, ok = at, true
		}
	}
	return min, ok
}

func (n *naive) dueSet() []int32 {
	var due []int32
	for id, at := range n.deadline {
		if at <= n.now {
			due = append(due, id)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// PopDue removes and returns one matured event (deadline <= now), or
// (-1, false) when none are pending.
func (w *Wheel) PopDue() (int32, bool) {
	id := w.due
	if id == nilRef {
		return -1, false
	}
	w.unlink(id)
	w.where[id] = whereNone
	w.n--
	return id, true
}

// drainDue pops everything matured from the wheel and returns the
// sorted id set.
func drainDue(w *Wheel) []int32 {
	var got []int32
	for {
		id, ok := w.PopDue()
		if !ok {
			break
		}
		got = append(got, id)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return got
}

// TestWheelDifferential drives the wheel and the naive reference through
// long randomized schedules — schedule, reschedule, cancel, advance —
// and checks Next and the matured set agree at every step. Jump sizes
// span slots, levels, block rollovers and the far horizon.
func TestWheelDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		start := rng.Uint64() >> 1
		w := NewWheel(start, 8)
		ref := newNaive(start)
		const ids = 24
		for step := 0; step < 4000; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4:
				id := int32(rng.Intn(ids))
				// Deadlines from next-cycle to beyond the far horizon.
				var at uint64
				switch rng.Intn(4) {
				case 0:
					at = w.now + 1 + uint64(rng.Intn(100))
				case 1:
					at = w.now + uint64(rng.Intn(1<<14))
				case 2:
					at = w.now + uint64(rng.Int63n(1<<30))
				default:
					at = w.now + uint64(rng.Int63n(1<<40))
				}
				w.Schedule(id, at)
				ref.schedule(id, at)
			case 5:
				id := int32(rng.Intn(ids))
				w.Cancel(id)
				ref.cancel(id)
			default:
				var delta uint64
				switch rng.Intn(5) {
				case 0:
					delta = 1 + uint64(rng.Intn(64))
				case 1:
					delta = uint64(rng.Intn(1 << 13))
				case 2:
					delta = uint64(rng.Int63n(1 << 24))
				case 3:
					delta = uint64(rng.Int63n(1 << 37))
				default:
					// Jump straight to (or past) the next edge.
					if at, ok := ref.next(); ok && at > w.now {
						delta = at - w.now + uint64(rng.Intn(2))
					} else {
						delta = 1
					}
				}
				w.Advance(w.now + delta)
				ref.now += delta
				wantDue := ref.dueSet()
				gotDue := drainDue(w)
				if len(wantDue) != len(gotDue) {
					t.Fatalf("seed %d step %d: due %v, want %v", seed, step, gotDue, wantDue)
				}
				for i := range wantDue {
					if wantDue[i] != gotDue[i] {
						t.Fatalf("seed %d step %d: due %v, want %v", seed, step, gotDue, wantDue)
					}
					ref.cancel(wantDue[i])
				}
			}
			gotNext, gotOK := w.Next()
			wantNext, wantOK := ref.next()
			if gotOK != wantOK || (gotOK && gotNext != wantNext) {
				t.Fatalf("seed %d step %d: Next = (%d,%v), want (%d,%v)",
					seed, step, gotNext, gotOK, wantNext, wantOK)
			}
			if w.Len() != len(ref.deadline) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, w.Len(), len(ref.deadline))
			}
		}
	}
}

// TestWheelImmediateAndPast: deadlines at or before Now mature at once.
func TestWheelImmediateAndPast(t *testing.T) {
	w := NewWheel(1000, 4)
	w.Schedule(0, 1000)
	w.Schedule(1, 5)
	w.Schedule(2, 1001)
	if at, ok := w.Next(); !ok || at != 5 {
		t.Fatalf("Next = (%d,%v), want (5,true)", at, ok)
	}
	got := drainDue(w)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("due = %v, want [0 1]", got)
	}
	if at, ok := w.Next(); !ok || at != 1001 {
		t.Fatalf("Next = (%d,%v), want (1001,true)", at, ok)
	}
}

// TestWheelRescheduleMoves: scheduling a pending id moves it.
func TestWheelRescheduleMoves(t *testing.T) {
	w := NewWheel(0, 4)
	w.Schedule(3, 100)
	w.Schedule(3, 50_000)
	if at, _ := w.Next(); at != 50_000 {
		t.Fatalf("Next = %d, want 50000", at)
	}
	w.Advance(200)
	if _, ok := w.PopDue(); ok {
		t.Fatal("moved event matured at its old deadline")
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1", w.Len())
	}
	w.Advance(50_000)
	if id, ok := w.PopDue(); !ok || id != 3 {
		t.Fatalf("PopDue = (%d,%v), want (3,true)", id, ok)
	}
}

// TestWheelCancelUnknown: cancels of unknown or idle ids are no-ops.
func TestWheelCancelUnknown(t *testing.T) {
	w := NewWheel(0, 2)
	w.Cancel(0)
	w.Cancel(999)
	w.Schedule(1, 10)
	w.Cancel(1)
	if w.Len() != 0 {
		t.Fatalf("Len = %d, want 0", w.Len())
	}
	if _, ok := w.Next(); ok {
		t.Fatal("Next reported an event after cancel")
	}
}

// TestWheelFarHorizon: events beyond 2^36 land in the overflow list,
// survive rollovers, and mature at the right time.
func TestWheelFarHorizon(t *testing.T) {
	w := NewWheel(0, 2)
	far := uint64(1)<<40 + 12345
	w.Schedule(0, far)
	if at, ok := w.Next(); !ok || at != far {
		t.Fatalf("Next = (%d,%v), want (%d,true)", at, ok, far)
	}
	w.Advance(1 << 38)
	if _, ok := w.PopDue(); ok {
		t.Fatal("far event matured early")
	}
	w.Advance(far - 1)
	if _, ok := w.PopDue(); ok {
		t.Fatal("far event matured one cycle early")
	}
	if at, ok := w.Next(); !ok || at != far {
		t.Fatalf("Next = (%d,%v), want (%d,true)", at, ok, far)
	}
	w.Advance(far)
	if id, ok := w.PopDue(); !ok || id != 0 {
		t.Fatalf("PopDue = (%d,%v), want (0,true)", id, ok)
	}
}

// TestWheelZeroAllocs: steady-state schedule/advance/pop traffic stays
// off the heap once the id arrays have grown.
func TestWheelZeroAllocs(t *testing.T) {
	w := NewWheel(0, 16)
	var now uint64
	rng := rand.New(rand.NewSource(9))
	deltas := make([]uint64, 256)
	for i := range deltas {
		deltas[i] = 1 + uint64(rng.Intn(1<<16))
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		for k := int32(0); k < 8; k++ {
			w.Schedule(k, now+deltas[(i+int(k))%len(deltas)])
		}
		w.Cancel(3)
		now += deltas[i%len(deltas)] / 2
		w.Advance(now)
		for {
			if _, ok := w.PopDue(); !ok {
				break
			}
		}
		i++
	}); n != 0 {
		t.Fatalf("wheel traffic allocates %v per run, want 0", n)
	}
}

// BenchmarkEventWheel measures a controller-shaped workload: a few
// recurring events (refresh, completion, power-down) scheduled and
// advanced across mixed spans.
func BenchmarkEventWheel(b *testing.B) {
	w := NewWheel(0, 8)
	var now uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Schedule(0, now+1560) // refresh slot
		w.Schedule(1, now+42)   // in-flight completion
		w.Schedule(2, now+3)    // power-down entry
		next, _ := w.Next()
		now = next
		w.Advance(now)
		for {
			if _, ok := w.PopDue(); !ok {
				break
			}
		}
		w.Cancel(0)
		w.Cancel(1)
	}
}
