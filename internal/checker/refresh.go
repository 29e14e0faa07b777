package checker

// RefreshTracker validates refresh accounting across memctrl (which
// issues auto-refresh commands) and dram (which fast-forwards through
// quiescent stretches and self-refresh periods). It works in spans: a
// span is a stretch of auto-refresh operation at one refresh shift, and
// at every shift change — and at Finish — the tracker compares the
// refreshes actually issued against the count implied by the effective
// interval (tREFI << shift, divided across banks for per-bank refresh).
// Cycles that the channel fast-forwarded (AdvanceTo) are excluded from
// the span, since the controller is not stepped across them; JEDEC-style
// postponement gives the comparison a bounded tolerance.
//
// Self-refresh periods are validated separately: the channel reports the
// pulses it credited for each fast-forward, and the tracker recomputes
// them from tREFI and the divider the scheme intended (ExpectDivider),
// pinning the paper's 16x claim — at divider 4 an idle second earns
// 1/16th the pulses of JEDEC-rate refresh.
//
// All methods are nil-safe: a nil tracker is a no-op.
//
//meccvet:nilsafe
type RefreshTracker struct {
	suite *Suite

	trefi        uint64
	banks        int
	perBank      bool
	maxPostponed int
	enabled      bool

	// Current span state (DRAM cycles).
	shift     int
	spanStart uint64
	excluded  uint64
	issued    uint64

	// Self-refresh validation state.
	expectDivider int // scheme-intended divider; -1 = not in managed SR
}

// NewRefreshTracker builds a tracker for one controller+channel pair.
func NewRefreshTracker(s *Suite, trefi uint64, banks int, perBank bool, maxPostponed int, refreshEnabled bool) *RefreshTracker {
	if trefi == 0 {
		trefi = 1
	}
	if banks <= 0 {
		banks = 1
	}
	return &RefreshTracker{
		suite:         s,
		trefi:         trefi,
		banks:         banks,
		perBank:       perBank,
		maxPostponed:  maxPostponed,
		enabled:       refreshEnabled,
		expectDivider: -1,
	}
}

// interval returns the effective auto-refresh interval at the span's
// shift, mirroring the controller's arithmetic independently.
func (t *RefreshTracker) interval() uint64 {
	iv := t.trefi << t.shift
	if t.perBank {
		iv /= uint64(t.banks)
		if iv == 0 {
			iv = 1
		}
	}
	return iv
}

// closeSpan compares the span's issued count against the expected count
// and restarts the span at `now`.
func (t *RefreshTracker) closeSpan(now uint64) {
	if t.enabled && now > t.spanStart {
		elapsed := now - t.spanStart
		if t.excluded > elapsed {
			t.excluded = elapsed
		}
		effective := elapsed - t.excluded
		expected := effective / t.interval()
		tol := uint64(t.maxPostponed + 2)
		var deficit uint64
		switch {
		case t.issued+tol < expected:
			deficit = expected - t.issued
		case expected+tol < t.issued:
			deficit = t.issued - expected
		}
		if deficit > 0 {
			t.suite.Report("refresh-ratio", now,
				"span [%d,%d) shift %d: issued %d refreshes, expected %d (interval %d, %d cycles excluded, tolerance %d)",
				t.spanStart, now, t.shift, t.issued, expected, t.interval(), t.excluded, tol)
		}
	}
	t.spanStart = now
	t.excluded = 0
	t.issued = 0
}

// OnShift notes a refresh-rate change at DRAM cycle now, closing the
// current span. Nil-safe.
func (t *RefreshTracker) OnShift(now uint64, shift int) {
	if t == nil {
		return
	}
	if shift == t.shift {
		return
	}
	t.closeSpan(now)
	t.shift = shift
}

// OnRefresh counts one issued auto-refresh (REF or REFpb). Nil-safe.
func (t *RefreshTracker) OnRefresh(now uint64, bank int) {
	if t == nil {
		return
	}
	t.issued++
}

// OnAdvance notes a channel fast-forward of delta cycles. Non-self-
// refresh advances are excluded from the auto-refresh span (the
// controller is not stepped across them); self-refresh advances are
// cross-checked against the intended divider: the channel's credited
// pulses must equal delta / (tREFI << divider). Nil-safe.
func (t *RefreshTracker) OnAdvance(now, delta uint64, selfRefresh bool, pulses uint64) {
	if t == nil || delta == 0 {
		return
	}
	t.excluded += delta
	if !selfRefresh {
		return
	}
	if t.expectDivider >= 0 {
		expected := delta / (t.trefi << t.expectDivider)
		if pulses != expected {
			t.suite.Report("refresh-ratio", now,
				"self-refresh advance of %d cycles credited %d pulses, expected %d at divider %d",
				delta, pulses, expected, t.expectDivider)
		}
	}
}

// ExpectDivider tells the tracker which self-refresh divider the scheme
// intends for the next idle period; pass -1 when leaving managed self
// refresh. Nil-safe.
func (t *RefreshTracker) ExpectDivider(bits int) {
	if t == nil {
		return
	}
	t.expectDivider = bits
}

// Finish closes the final span at DRAM cycle now. Further hooks restart
// tracking from now. Nil-safe.
func (t *RefreshTracker) Finish(now uint64) {
	if t == nil {
		return
	}
	t.closeSpan(now)
}
