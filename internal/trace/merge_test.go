package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestEncodeDecodeEventsRoundTrip(t *testing.T) {
	events := []Event{
		{Rank: 0, Name: "exchange", Start: 10 * time.Microsecond, Dur: 90 * time.Microsecond,
			Exchange: 0xdeadbeefcafef00d, Round: -1, Peer: -1},
		{Rank: 3, Name: "round-2", Start: 15 * time.Microsecond, Dur: 40 * time.Microsecond,
			Bytes: 4096, Exchange: 0xdeadbeefcafef00d, Round: 2, Peer: -1},
		{Rank: 3, Name: "wait<-1", Start: 20 * time.Microsecond, Dur: 30 * time.Microsecond,
			Bytes: 4096, Exchange: 0xdeadbeefcafef00d, Round: 2, Peer: 1},
		{Rank: 7, Name: "", Start: 0, Dur: 0}, // empty name, no exchange
	}
	got, err := DecodeEvents(EncodeEvents(events))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", events, got)
	}
}

func TestDecodeEventsEmpty(t *testing.T) {
	got, err := DecodeEvents(EncodeEvents(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d events from empty set", len(got))
	}
}

func TestDecodeEventsRejectsGarbage(t *testing.T) {
	enc := EncodeEvents([]Event{{Rank: 1, Name: "span"}})
	cases := map[string][]byte{
		"empty":     {},
		"short":     enc[:3],
		"bad magic": append([]byte{'x', 'y', 'z', 9}, enc[4:]...),
		"truncated": enc[:len(enc)-5],
		"trailing":  append(append([]byte{}, enc...), 0),
	}
	for name, buf := range cases {
		if _, err := DecodeEvents(buf); err == nil {
			t.Errorf("%s input decoded without error", name)
		}
	}
}

// TestStragglerReport checks critical-path attribution: the slowest
// rank's round span wins, and its longest peer wait names the straggler.
func TestStragglerReport(t *testing.T) {
	const exch = uint64(0x1111)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	events := []Event{
		// Round 0: rank 2 is slowest and spent most of it waiting on rank 0.
		{Rank: 0, Name: "round-0", Dur: ms(2), Exchange: exch, Round: 0, Peer: -1},
		{Rank: 1, Name: "round-0", Dur: ms(3), Exchange: exch, Round: 0, Peer: -1},
		{Rank: 2, Name: "round-0", Dur: ms(10), Exchange: exch, Round: 0, Peer: -1},
		{Rank: 2, Name: "wait<-0", Dur: ms(8), Exchange: exch, Round: 0, Peer: 0},
		{Rank: 2, Name: "wait<-1", Dur: ms(1), Exchange: exch, Round: 0, Peer: 1},
		// A wait on the non-critical rank must not win.
		{Rank: 1, Name: "wait<-2", Dur: ms(9), Exchange: exch, Round: 0, Peer: 2},
		// Round 1: rank 0 slowest, no waits recorded.
		{Rank: 0, Name: "round-1", Dur: ms(5), Exchange: exch, Round: 1, Peer: -1},
		{Rank: 1, Name: "round-1", Dur: ms(1), Exchange: exch, Round: 1, Peer: -1},
		// Unrelated span without an exchange ID is ignored.
		{Rank: 0, Name: "round-0", Dur: ms(99)},
	}
	report := StragglerReport(events)
	if len(report) != 2 {
		t.Fatalf("report has %d rounds, want 2: %+v", len(report), report)
	}
	r0 := report[0]
	if r0.Round != 0 || r0.CriticalRank != 2 || r0.RoundDur != ms(10) {
		t.Fatalf("round 0 critical = %+v", r0)
	}
	if r0.DominantPeer != 0 || r0.WaitDur != ms(8) {
		t.Fatalf("round 0 dominant wait = %+v", r0)
	}
	if f := r0.WaitFrac(); f < 0.79 || f > 0.81 {
		t.Fatalf("round 0 wait fraction = %v, want 0.8", f)
	}
	r1 := report[1]
	if r1.Round != 1 || r1.CriticalRank != 0 || r1.DominantPeer != -1 {
		t.Fatalf("round 1 critical = %+v", r1)
	}
}

// An exchange that records no round spans (a trace holding only whole-
// exchange spans) is grouped by its whole-exchange span keyed round -1,
// waits included.
func TestStragglerReportFused(t *testing.T) {
	const exch = uint64(0x2222)
	events := []Event{
		{Rank: 0, Name: "exchange", Dur: 2 * time.Millisecond, Exchange: exch, Round: -1, Peer: -1},
		{Rank: 1, Name: "exchange", Dur: 9 * time.Millisecond, Exchange: exch, Round: -1, Peer: -1},
		{Rank: 1, Name: "wait<-0", Dur: 7 * time.Millisecond, Exchange: exch, Round: -1, Peer: 0},
	}
	report := StragglerReport(events)
	if len(report) != 1 {
		t.Fatalf("report has %d entries, want 1", len(report))
	}
	rc := report[0]
	if rc.Round != -1 || rc.CriticalRank != 1 || rc.DominantPeer != 0 {
		t.Fatalf("round-less report = %+v", rc)
	}

	var buf bytes.Buffer
	WriteStragglerReport(&buf, report)
	out := buf.String()
	if !strings.Contains(out, "exchange") || !strings.Contains(out, "wait<-0") {
		t.Fatalf("rendered report missing fields:\n%s", out)
	}
}
