package checker

// FaultKind classifies an injected fault.
type FaultKind int

// Fault kinds. Both are consumed by the memory controller at
// refresh-issue points.
const (
	// DropRefresh silently swallows one due auto-refresh command.
	DropRefresh FaultKind = iota + 1
	// DelayRefresh postpones one due auto-refresh by DelayCycles.
	DelayRefresh
)

// Fault is one scheduled fault.
type Fault struct {
	// Kind selects the fault type.
	Kind FaultKind
	// Seq is the refresh issue sequence number at which the fault fires.
	Seq uint64
	// DelayCycles postpones the refresh (DelayRefresh only).
	DelayCycles uint64
}

// FaultPlan is a deterministic fault schedule, sorted by Seq.
type FaultPlan struct {
	// Faults holds the schedule in Seq order.
	Faults []Fault
}

// RefreshFaults returns the plan's refresh faults wrapped for consumption
// by the memory controller, or nil when the plan holds none.
func (p *FaultPlan) RefreshFaults() *RefreshFaults {
	if p == nil {
		return nil
	}
	bySeq := make(map[uint64][]Fault)
	n := 0
	for _, f := range p.Faults {
		if f.Kind == DropRefresh || f.Kind == DelayRefresh {
			bySeq[f.Seq] = append(bySeq[f.Seq], f)
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return &RefreshFaults{bySeq: bySeq}
}

// RefreshFaults hands refresh faults to the memory controller by issue
// sequence number. Each fault fires at most once. All methods are
// nil-safe.
//
//meccvet:nilsafe
type RefreshFaults struct {
	bySeq map[uint64][]Fault
}

// Next pops the next fault scheduled for refresh sequence number seq, if
// any. Nil-safe.
func (r *RefreshFaults) Next(seq uint64) (Fault, bool) {
	if r == nil {
		return Fault{}, false
	}
	q := r.bySeq[seq]
	if len(q) == 0 {
		return Fault{}, false
	}
	f := q[0]
	if len(q) == 1 {
		delete(r.bySeq, seq)
	} else {
		r.bySeq[seq] = q[1:]
	}
	return f, true
}
