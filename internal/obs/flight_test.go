package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestFlightRecorderRoundTrip(t *testing.T) {
	f := NewFlightRecorder(256)
	want := representativeEvents()
	for _, e := range want {
		f.Record(e)
	}
	got := f.Events()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flight round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if f.Recorded() != uint64(len(want)) {
		t.Errorf("Recorded() = %d, want %d", f.Recorded(), len(want))
	}
}

func TestFlightRecorderCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultFlightEvents}, {-1, DefaultFlightEvents},
		{1, 64}, {64, 64}, {65, 128}, {1000, 1024},
	} {
		if got := len(NewFlightRecorder(tc.in).slots); got != tc.want {
			t.Errorf("NewFlightRecorder(%d) holds %d slots, want %d", tc.in, got, tc.want)
		}
	}
}

func TestFlightRecorderWrapKeepsNewest(t *testing.T) {
	f := NewFlightRecorder(64)
	const total = 200
	for i := 0; i < total; i++ {
		f.Record(Event{T: uint64(i), Kind: KindDecode, Cycles: uint64(i) + 1})
	}
	got := f.Events()
	if len(got) != 64 {
		t.Fatalf("retained %d events, want 64", len(got))
	}
	for i, e := range got {
		if want := uint64(total - 64 + i); e.T != want {
			t.Fatalf("event %d: T=%d, want %d (oldest-first order)", i, e.T, want)
		}
	}
}

func TestFlightRecorderInternOverflow(t *testing.T) {
	f := NewFlightRecorder(256)
	const distinct = internSlots + 10
	for i := 0; i < distinct; i++ {
		f.Record(Event{T: uint64(i), Kind: KindSpanStart, Span: uint64(i) + 1, Name: fmt.Sprintf("span-%d", i)})
	}
	events := f.Events()
	if len(events) != distinct {
		t.Fatalf("retained %d events, want %d", len(events), distinct)
	}
	var overflowed int
	for i, e := range events {
		switch e.Name {
		case fmt.Sprintf("span-%d", i):
		case "?":
			overflowed++
		default:
			t.Fatalf("event %d: unexpected name %q", i, e.Name)
		}
	}
	if overflowed == 0 {
		t.Error("expected some names to overflow the intern table")
	}
	if events[0].Name != "span-0" {
		t.Errorf("early names should intern cleanly, got %q", events[0].Name)
	}
}

func TestFlightRecorderConcurrentRecordAndDump(t *testing.T) {
	f := NewFlightRecorder(128)
	const writers = 4
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < 5000; i++ {
				f.Record(Event{T: uint64(i), Kind: KindDecode, Bank: w, Cycles: uint64(i)})
			}
		}(w)
	}
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range f.Events() {
				if e.Kind != KindDecode {
					t.Errorf("torn event leaked: %+v", e)
					return
				}
			}
		}
	}()
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if got := f.Recorded(); got != writers*5000 {
		t.Errorf("Recorded() = %d, want %d", got, writers*5000)
	}
	if n := len(f.Events()); n != 128 {
		t.Errorf("retained %d events, want full ring of 128", n)
	}
}

func TestFlightRecorderWriteJSONLParses(t *testing.T) {
	f := NewFlightRecorder(64)
	want := representativeEvents()
	for _, e := range want {
		f.Record(e)
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("JSONL dump mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestFlightRecorderZeroAllocs pins the record path's allocation
// contract: nil-disabled and enabled steady-state records both cost 0
// allocations (interning of a string's first occurrence is the only
// exception, warmed here before measuring).
func TestFlightRecorderZeroAllocs(t *testing.T) {
	var nilF *FlightRecorder
	e := Event{T: 1, Kind: KindDecode, Cmd: "RD", Phase: "active", Name: "sweep", Cycles: 30}
	if n := testing.AllocsPerRun(1000, func() { nilF.Record(e) }); n != 0 {
		t.Errorf("nil FlightRecorder.Record allocates %v/op", n)
	}
	f := NewFlightRecorder(1024)
	f.Record(e) // warm the intern table
	if n := testing.AllocsPerRun(1000, func() { f.Record(e) }); n != 0 {
		t.Errorf("enabled FlightRecorder.Record allocates %v/op", n)
	}
	r := &Recorder{flight: f}
	if n := testing.AllocsPerRun(1000, func() {
		if r.Tracing() {
			r.Emit(e)
		}
	}); n != 0 {
		t.Errorf("Emit into flight-only recorder allocates %v/op", n)
	}
}
