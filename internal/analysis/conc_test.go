package analysis

import (
	"go/types"
	"strings"
	"testing"
)

// loadFixtureProg loads one fixture package and builds its Program the
// way RunTimed does.
func loadFixtureProg(t *testing.T, pattern string) *Program {
	t.Helper()
	pkgs, err := Load(".", pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	roots := Roots(pkgs)
	if len(roots) != 1 {
		t.Fatalf("%s: want one root package, got %d", pattern, len(roots))
	}
	if len(roots[0].Errors) > 0 {
		t.Fatalf("%s does not type-check: %v", pattern, roots[0].Errors[0])
	}
	return buildProgram(roots)
}

// eventAt returns the unique event of the kind at the fixture line.
func eventAt(t *testing.T, g *hbGraph, kind hbKind, line int) *hbEvent {
	t.Helper()
	var found *hbEvent
	for _, ev := range g.events {
		if ev.kind == kind && ev.pos.Line == line {
			if found != nil {
				t.Fatalf("two %v events at line %d", kind, line)
			}
			found = ev
		}
	}
	if found == nil {
		t.Fatalf("no %v event at line %d", kind, line)
	}
	return found
}

// TestHBGolden pins the full edge list of the happens-before graph
// over the hbgold fixture: program order inside each body, the go edge
// into the spawned literal, channel send/close→recv pairing on the
// concrete allocation sites, WaitGroup Done→Wait edges, and mutex
// release→acquire edges.
func TestHBGolden(t *testing.T) {
	prog := loadFixtureProg(t, "./testdata/src/hbgold")
	got := prog.hb().Dump("repro/internal/analysis/testdata/src/hbgold")
	want := []string{
		"close@hbgold.go:14 -ch-> recv@hbgold.go:17 [alloc@11]",
		"go@hbgold.go:12 -go-> send@hbgold.go:13",
		"go@hbgold.go:12 -po-> recv@hbgold.go:16",
		"go@hbgold.go:31 -go-> wg.Done@hbgold.go:32",
		"go@hbgold.go:31 -po-> go@hbgold.go:34",
		"go@hbgold.go:34 -go-> wg.Done@hbgold.go:35",
		"go@hbgold.go:34 -po-> wg.Wait@hbgold.go:37",
		"lock@hbgold.go:22 -po-> unlock@hbgold.go:23",
		"lock@hbgold.go:24 -po-> unlock@hbgold.go:25",
		"recv@hbgold.go:16 -po-> recv@hbgold.go:17",
		"send@hbgold.go:13 -ch-> recv@hbgold.go:16 [alloc@10]",
		"send@hbgold.go:13 -po-> close@hbgold.go:14",
		"unlock@hbgold.go:23 -mu-> lock@hbgold.go:22 [mu]",
		"unlock@hbgold.go:23 -mu-> lock@hbgold.go:24 [mu]",
		"unlock@hbgold.go:23 -po-> lock@hbgold.go:24",
		"unlock@hbgold.go:25 -mu-> lock@hbgold.go:22 [mu]",
		"unlock@hbgold.go:25 -mu-> lock@hbgold.go:24 [mu]",
		"wg.Add@hbgold.go:30 -po-> go@hbgold.go:31",
		"wg.Done@hbgold.go:32 -wg-> wg.Wait@hbgold.go:37 [wg]",
		"wg.Done@hbgold.go:35 -wg-> wg.Wait@hbgold.go:37 [wg]",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("happens-before dump mismatch:\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestPointsToGolden pins the solver's object resolution over the
// ptgold fixture: endpoints reached through fields and receivers share
// one unescaped allocation site with the recorded capacity, the method
// spawned with go resolves to its body, and exported API (open world)
// escapes everything reachable from it.
func TestPointsToGolden(t *testing.T) {
	prog := loadFixtureProg(t, "./testdata/src/ptgold")
	g := prog.hb()
	pt := g.pt

	// h.events: publish's send (line 33) and run's select receive
	// (line 24) must resolve to the same singleton make site, cap 4.
	send := eventAt(t, g, evChanSend, 33)
	recv := eventAt(t, g, evChanRecv, 24)
	if len(send.objs) != 1 || len(recv.objs) != 1 || send.objs[0] != recv.objs[0] {
		t.Fatalf("events endpoints do not share one object: send=%v recv=%v", send.objs, recv.objs)
	}
	events := send.objs[0]
	if pt.locs[events].chanCap != 4 {
		t.Errorf("events make-site capacity = %d, want 4", pt.locs[events].chanCap)
	}
	if pt.escapedLoc(events) {
		t.Errorf("events channel escaped; closed-world object expected")
	}

	// h.stop: shutdown's close (line 37) pairs with run's select
	// receive (line 26) on an unbuffered singleton.
	cl := eventAt(t, g, evChanClose, 37)
	stopRecv := eventAt(t, g, evChanRecv, 26)
	if len(cl.objs) != 1 || len(stopRecv.objs) != 1 || cl.objs[0] != stopRecv.objs[0] {
		t.Fatalf("stop endpoints do not share one object: close=%v recv=%v", cl.objs, stopRecv.objs)
	}
	if cap := pt.locs[cl.objs[0]].chanCap; cap != 0 {
		t.Errorf("stop make-site capacity = %d, want 0", cap)
	}

	// go h.run() resolves statically to the method body.
	spawn := eventAt(t, g, evGoStart, 42)
	if len(spawn.targets) != 1 || spawn.targets[0].fn == nil || spawn.targets[0].fn.Name() != "run" {
		t.Errorf("go h.run() targets = %+v, want the run method", spawn.targets)
	}

	// NewBox is exported: the channel reachable through its result must
	// be escaped (open world) — no "dead channel" reports on API types.
	var boxChan int = -1
	for id, loc := range pt.locs {
		if loc.kind != locAlloc || loc.typ == nil || loc.pos.Line != 57 {
			continue
		}
		if _, ok := loc.typ.Underlying().(*types.Chan); ok {
			boxChan = id
		}
	}
	if boxChan < 0 {
		t.Fatalf("no allocation recorded for NewBox's channel (line 57)")
	}
	if !pt.escapedLoc(boxChan) {
		t.Errorf("NewBox's channel is not escaped; exported results must leak (open world)")
	}
}
