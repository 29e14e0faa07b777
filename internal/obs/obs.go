package obs

// Recorder is the telemetry handle threaded through the simulator: it
// bundles a metrics registry, an optional structured event log, an
// optional time-series sampler, an optional always-on flight recorder,
// and an optional live progress tracker. A nil *Recorder is the
// disabled state — every method is a no-op and every metric handle it
// returns is a nil no-op — so instrumented packages hold a
// possibly-nil *Recorder and never branch on "is telemetry on" beyond
// a nil check.
//
//meccvet:nilsafe
type Recorder struct {
	reg     *Registry
	log     *EventLog
	sampler *Sampler
	flight  *FlightRecorder
	prog    *Progress
}

// New builds a recorder with a fresh registry and no event log or
// sampler (metrics only).
func New() *Recorder {
	return &Recorder{reg: NewRegistry()}
}

// SetEventLog attaches (or, with nil, detaches) an event log.
func (r *Recorder) SetEventLog(l *EventLog) {
	if r == nil {
		return
	}
	r.log = l
}

// SetSampler attaches (or, with nil, detaches) a time-series sampler.
func (r *Recorder) SetSampler(s *Sampler) {
	if r == nil {
		return
	}
	r.sampler = s
}

// SetFlightRecorder attaches (or, with nil, detaches) a flight
// recorder. With one attached, every emitted event also lands in the
// ring and Tracing() reports true, so instrumented packages construct
// events; the ring's record path itself stays lock- and
// allocation-free.
func (r *Recorder) SetFlightRecorder(f *FlightRecorder) {
	if r == nil {
		return
	}
	r.flight = f
}

// SetProgress attaches (or, with nil, detaches) a progress tracker.
func (r *Recorder) SetProgress(p *Progress) {
	if r == nil {
		return
	}
	r.prog = p
}

// Progress returns the attached progress tracker, if any (nil-safe to
// use either way).
func (r *Recorder) Progress() *Progress {
	if r == nil {
		return nil
	}
	return r.prog
}

// Registry returns the metrics registry (nil on a nil recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Sampler returns the attached sampler, if any.
func (r *Recorder) Sampler() *Sampler {
	if r == nil {
		return nil
	}
	return r.sampler
}

// Counter resolves a named counter (nil no-op handle when disabled).
// Resolve once at wiring time, not in hot loops: creation takes a lock.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.reg.Counter(name)
}

// Gauge resolves a named gauge (nil no-op handle when disabled).
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.reg.Gauge(name)
}

// Histogram resolves a named histogram (nil no-op handle when disabled).
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.reg.Histogram(name)
}

// Emit records one structured event into the event log and/or flight
// recorder, whichever is attached. Callers on hot paths should guard
// the call (and the Event construction) behind their own Tracing()
// check so the disabled path does no work at all. With only a flight
// recorder attached, Emit takes no locks and allocates nothing.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	if r.flight != nil {
		r.flight.Record(e)
	}
	if r.log != nil {
		r.log.add(e)
	}
}

// Tracing reports whether any event sink (event log or flight
// recorder) is attached — hot paths use it to skip Event construction
// entirely when no one is listening.
func (r *Recorder) Tracing() bool { return r != nil && (r.log != nil || r.flight != nil) }

// Tick advances the sampler, if any, to cycle now.
func (r *Recorder) Tick(now uint64) {
	if r == nil || r.sampler == nil {
		return
	}
	r.sampler.Tick(now)
}

// Flush drains any buffered trace output.
func (r *Recorder) Flush() error {
	if r == nil || r.log == nil {
		return nil
	}
	return r.log.Flush()
}
