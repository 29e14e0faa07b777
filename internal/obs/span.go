package obs

import "sync/atomic"

// spanIDs hands out process-unique span ids. Span ids exist to link
// start/end events and parents to children within one trace stream;
// they carry no meaning across runs, so a plain process-global counter
// is enough (and keeps concurrent experiment sweeps from colliding).
var spanIDs atomic.Uint64

// Span is one node of the hierarchical trace: run → experiment → phase
// → sweep. A span is created only when the recorder is tracing (an
// event log or flight recorder is attached) — otherwise StartSpan and
// Child return nil, and every method of a nil *Span is a free no-op —
// so hot paths hold a possibly-nil *Span without branching.
//
// Spans are recorded as paired KindSpanStart / KindSpanEnd events in
// the emitter's clock domain (CPU cycles inside the simulator,
// wall-clock nanoseconds in the experiment harness); obsdump stitches
// the pairs into a per-phase latency summary.
//
//meccvet:nilsafe
type Span struct {
	r      *Recorder
	id     uint64
	parent uint64
	name   string
	start  uint64
}

// StartSpan opens a root span named name at time t, or returns nil when
// the recorder is not tracing.
func (r *Recorder) StartSpan(name string, t uint64) *Span {
	if r == nil || !r.Tracing() {
		return nil
	}
	return r.newSpan(name, 0, t)
}

// StartSpanUnder opens a span as a child of an externally supplied
// parent span id — for crossing a package boundary (experiment harness
// → simulator) where threading the *Span handle itself is impractical.
// Parent 0 makes a root. Returns nil when not tracing.
func (r *Recorder) StartSpanUnder(name string, parent, t uint64) *Span {
	if r == nil || !r.Tracing() {
		return nil
	}
	return r.newSpan(name, parent, t)
}

// Child opens a sub-span of s named name at time t. Nil parents yield
// nil children, so a whole disabled span tree costs only nil checks.
func (s *Span) Child(name string, t uint64) *Span {
	if s == nil {
		return nil
	}
	return s.r.newSpan(name, s.id, t)
}

// newSpan allocates an id and emits the start event.
func (r *Recorder) newSpan(name string, parent, t uint64) *Span {
	s := &Span{r: r, id: spanIDs.Add(1), parent: parent, name: name, start: t}
	if r.Tracing() {
		r.Emit(Event{T: t, Kind: KindSpanStart, Span: s.id, Parent: parent, Name: name})
	}
	return s
}

// End closes the span at time t, emitting the end event with the
// span's duration. Ending a nil span is a no-op; ending twice emits
// twice (don't).
func (s *Span) End(t uint64) {
	if s == nil {
		return
	}
	var dur uint64
	if t > s.start {
		dur = t - s.start
	}
	r := s.r
	if r.Tracing() {
		r.Emit(Event{T: t, Kind: KindSpanEnd, Span: s.id, Parent: s.parent, Name: s.name, Cycles: dur})
	}
}

// ID returns the span id (0 on a nil receiver).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}
