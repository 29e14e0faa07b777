package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// representativeEvents returns one fully populated event per kind, so
// the round-trip test exercises every field the schema defines.
func representativeEvents() []Event {
	return []Event{
		{T: 10, Kind: KindDRAMCmd, Cmd: "ACT", Bank: 3, Row: 1289},
		{T: 11, Kind: KindDRAMCmd, Cmd: "RD", Bank: 3, Row: 1289},
		{T: 3120, Kind: KindRefresh, Shift: 2},
		{T: 3121, Kind: KindRefresh, Bank: 5, Shift: 0},
		{T: 4000, Kind: KindRefreshRate, Shift: 4},
		{T: 5000, Kind: KindMECCTransition, Phase: "idle"},
		{T: 5001, Kind: KindSweepStart, Regions: 17},
		{T: 6200, Kind: KindSweepEnd, Lines: 4096, Regions: 17, Cycles: 1199},
		{T: 64_000_000, Kind: KindSMDWindow, MPKC: 1.25},
		{T: 128_000_000, Kind: KindSMDEnable, MPKC: 7.5},
		{T: 192_000_000, Kind: KindSMDDisable},
		{T: 200, Kind: KindMDTMark, Region: 42},
		{T: 777, Kind: KindDecode, Cycles: 30, Strong: true},
		{T: 778, Kind: KindDecode, Cycles: 2},
		{T: 900, Kind: KindSpanStart, Span: 7, Parent: 3, Name: "sweep"},
		{T: 2100, Kind: KindSpanEnd, Span: 7, Parent: 3, Name: "sweep", Cycles: 1200},
	}
}

// TestEventSchemaRoundTrip is the schema contract: every kind's JSONL
// encoding parses back into the identical Event, and the hand-rolled
// encoder emits byte-for-byte what encoding/json would.
func TestEventSchemaRoundTrip(t *testing.T) {
	events := representativeEvents()

	// Cover every declared kind at least once.
	seen := map[Kind]bool{}
	for _, e := range events {
		seen[e.Kind] = true
	}
	for _, k := range Kinds() {
		if !seen[k] {
			t.Errorf("representativeEvents misses kind %s", k)
		}
	}

	var stream bytes.Buffer
	for _, e := range events {
		line := e.appendJSON(nil)
		std, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, std) {
			t.Errorf("%s: hand-rolled %s != encoding/json %s", e.Kind, line, std)
		}
		stream.Write(line)
		stream.WriteByte('\n')
	}

	got, err := ReadJSONL(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, events)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{bad json\n")); err == nil {
		t.Error("malformed line: want error")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"t":1,"kind":"no_such_kind"}` + "\n")); err == nil {
		t.Error("unknown kind: want error")
	}
	got, err := ReadJSONL(strings.NewReader("\n  \n"))
	if err != nil || len(got) != 0 {
		t.Errorf("blank lines: got %v, %v", got, err)
	}
}

func TestParseKindMask(t *testing.T) {
	m, err := ParseKindMask("all")
	if err != nil || m != MaskAll {
		t.Errorf("all: %v, %v", m, err)
	}
	m, err = ParseKindMask("decode, smd_enable")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has(KindDecode) || !m.Has(KindSMDEnable) || m.Has(KindDRAMCmd) {
		t.Errorf("mask = %b", m)
	}
	if _, err := ParseKindMask("decode,bogus"); err == nil {
		t.Error("bogus kind: want error")
	}
}

func TestKindParseStringInverse(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%s) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("Kind(0)"); err == nil {
		t.Error("invalid name: want error")
	}
}

func TestEventLogMaskCountsRetention(t *testing.T) {
	l := NewEventLog()
	l.SetMask(KindMask(1<<KindDecode | 1<<KindSMDEnable))
	l.maxRetained = 6
	for i := 0; i < 5; i++ {
		l.add(Event{T: uint64(i), Kind: KindDecode})
	}
	l.add(Event{T: 9, Kind: KindSMDEnable})
	l.add(Event{T: 10, Kind: KindSMDEnable}) // beyond the retention bound
	l.add(Event{T: 12, Kind: KindDRAMCmd})   // masked out entirely

	// Masked kinds never land, and only the first six events fit.
	ev := l.Events()
	if len(ev) != 6 || ev[4].Kind != KindDecode || ev[5].Kind != KindSMDEnable || ev[5].T != 9 {
		t.Errorf("retained = %+v", ev)
	}
}

func TestEventLogStream(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog()
	l.SetStream(&buf)
	rec := New()
	rec.SetEventLog(l)
	if !rec.Tracing() {
		t.Fatal("Tracing must be true with a log attached")
	}
	rec.Emit(Event{T: 1, Kind: KindRefresh, Shift: 1})
	rec.Emit(Event{T: 2, Kind: KindDecode, Cycles: 30})
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Kind != KindRefresh || got[1].Cycles != 30 {
		t.Errorf("streamed = %+v", got)
	}
}
