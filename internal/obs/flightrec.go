package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The flight recorder is a fixed-size lock-free ring of recent structured
// transport events — the "last N frames before the crash" view that
// metrics aggregates away and traces only cover when someone thought to
// attach them beforehand. Producers are hot paths (frame decode, fault
// verdicts, queue saturation), so recording takes a handful of atomic
// stores and never allocates; when no recorder is attached the cost is a
// nil check at the call site. The ring is dumped automatically on peer
// loss and SIGQUIT, and on demand via /debug/flightrec.

// FlightKind classifies one flight-recorder event.
type FlightKind uint8

const (
	FlightSend FlightKind = iota + 1
	FlightRecv
	FlightFrameIn
	FlightChunkStart
	FlightChunkDone
	FlightDup
	FlightRetry
	FlightDrop
	FlightSever
	FlightSaturation
	FlightPeerLost
	FlightCacheHit
	FlightCacheMiss
	FlightExchangeStart
	FlightExchangeEnd
)

var flightKindNames = [...]string{
	FlightSend:          "send",
	FlightRecv:          "recv",
	FlightFrameIn:       "frame-in",
	FlightChunkStart:    "chunk-start",
	FlightChunkDone:     "chunk-done",
	FlightDup:           "dup-drop",
	FlightRetry:         "retry",
	FlightDrop:          "drop",
	FlightSever:         "sever",
	FlightSaturation:    "sendq-saturated",
	FlightPeerLost:      "peer-lost",
	FlightCacheHit:      "plan-cache-hit",
	FlightCacheMiss:     "plan-cache-miss",
	FlightExchangeStart: "exchange-start",
	FlightExchangeEnd:   "exchange-end",
}

func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) && flightKindNames[k] != "" {
		return flightKindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// FlightEvent is one recorded occurrence. Fields that do not apply to a
// kind are zero; Peer is -1 when no remote rank is involved.
type FlightEvent struct {
	At       int64 // unix nanoseconds; stamped by Record when zero
	Kind     FlightKind
	Rank     int32
	Peer     int32
	Tag      int32
	Round    int32
	Seq      uint64
	Exchange uint64
	Bytes    int64
}

// flightSlot packs one event into eight atomic words so concurrent
// writers and the snapshot reader never race byte-wise (the ring must be
// clean under the race detector). Word 0 is the seqlock stamp: zero while
// a writer owns the slot, else the claim sequence that wrote it.
type flightSlot [8]atomic.Uint64

// FlightRecorder is the ring. All methods are safe for concurrent use and
// valid on a nil receiver (no-ops), so instrumentation sites can record
// unconditionally behind a single pointer check.
type FlightRecorder struct {
	ring   []flightSlot
	mask   uint64
	pos    atomic.Uint64 // last claimed sequence; slot i holds seq i+1, i+1+len, ...
	dumped atomic.Bool
}

// NewFlightRecorder returns a recorder keeping the most recent size
// events. Size is rounded up to a power of two, minimum 64.
func NewFlightRecorder(size int) *FlightRecorder {
	n := 64
	for n < size && n < 1<<20 {
		n <<= 1
	}
	return &FlightRecorder{ring: make([]flightSlot, n), mask: uint64(n - 1)}
}

// Cap returns the ring capacity (0 for a nil recorder).
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// Record appends one event, overwriting the oldest when the ring is full.
// Lock-free, allocation-free, and a no-op on a nil recorder.
func (f *FlightRecorder) Record(ev FlightEvent) {
	if f == nil {
		return
	}
	if ev.At == 0 {
		ev.At = time.Now().UnixNano()
	}
	s := f.pos.Add(1)
	slot := &f.ring[(s-1)&f.mask]
	slot[0].Store(0) // mark mid-write; readers skip until restamped
	slot[1].Store(uint64(ev.At))
	slot[2].Store(uint64(ev.Kind)<<32 | uint64(uint32(ev.Round)))
	slot[3].Store(uint64(uint32(ev.Rank))<<32 | uint64(uint32(ev.Peer)))
	slot[4].Store(uint64(uint32(ev.Tag)) << 32)
	slot[5].Store(ev.Seq)
	slot[6].Store(ev.Exchange)
	slot[7].Store(uint64(ev.Bytes))
	slot[0].Store(s)
}

// Snapshot returns the ring's current contents oldest-first. Slots that
// are mid-overwrite while the snapshot runs are skipped, so a snapshot
// taken under heavy write load returns slightly fewer than Cap events.
func (f *FlightRecorder) Snapshot() []FlightEvent {
	if f == nil {
		return nil
	}
	end := f.pos.Load()
	if end == 0 {
		return nil
	}
	start := uint64(1)
	if size := uint64(len(f.ring)); end > size {
		start = end - size + 1
	}
	out := make([]FlightEvent, 0, end-start+1)
	for s := start; s <= end; s++ {
		slot := &f.ring[(s-1)&f.mask]
		if slot[0].Load() != s {
			continue // overwritten by a newer claim or mid-write
		}
		w1, w2, w3 := slot[1].Load(), slot[2].Load(), slot[3].Load()
		w4, w5, w6, w7 := slot[4].Load(), slot[5].Load(), slot[6].Load(), slot[7].Load()
		if slot[0].Load() != s {
			continue // writer moved in while we read; discard the torn view
		}
		out = append(out, FlightEvent{
			At:       int64(w1),
			Kind:     FlightKind(w2 >> 32),
			Round:    int32(uint32(w2)),
			Rank:     int32(uint32(w3 >> 32)),
			Peer:     int32(uint32(w3)),
			Tag:      int32(uint32(w4 >> 32)),
			Seq:      w5,
			Exchange: w6,
			Bytes:    int64(w7),
		})
	}
	return out
}

// Dump renders the ring oldest-first as one text line per event.
func (f *FlightRecorder) Dump(w io.Writer) {
	events := f.Snapshot()
	if len(events) == 0 {
		fmt.Fprintln(w, "flightrec: no events recorded")
		return
	}
	fmt.Fprintf(w, "flightrec: last %d events (ring cap %d)\n", len(events), f.Cap())
	for _, ev := range events {
		line := fmt.Sprintf("  %s rank=%d %-15s", time.Unix(0, ev.At).UTC().Format("15:04:05.000000"), ev.Rank, ev.Kind)
		if ev.Peer >= 0 {
			line += fmt.Sprintf(" peer=%d", ev.Peer)
		}
		if ev.Tag != 0 {
			line += fmt.Sprintf(" tag=%d", ev.Tag)
		}
		if ev.Exchange != 0 {
			line += fmt.Sprintf(" exch=%016x round=%d", ev.Exchange, ev.Round)
		}
		if ev.Seq != 0 {
			line += fmt.Sprintf(" seq=%d", ev.Seq)
		}
		if ev.Bytes != 0 {
			line += fmt.Sprintf(" bytes=%d", ev.Bytes)
		}
		fmt.Fprintln(w, line)
	}
}

// flightEventJSON is the /debug/flightrec?format=json projection.
type flightEventJSON struct {
	At       string `json:"at"`
	Kind     string `json:"kind"`
	Rank     int32  `json:"rank"`
	Peer     int32  `json:"peer,omitempty"`
	Tag      int32  `json:"tag,omitempty"`
	Round    int32  `json:"round,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`
	Exchange string `json:"exchange,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
}

// WriteJSON renders the ring oldest-first as a JSON array.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	events := f.Snapshot()
	out := make([]flightEventJSON, 0, len(events))
	for _, ev := range events {
		j := flightEventJSON{
			At:    time.Unix(0, ev.At).UTC().Format(time.RFC3339Nano),
			Kind:  ev.Kind.String(),
			Rank:  ev.Rank,
			Peer:  ev.Peer,
			Tag:   ev.Tag,
			Round: ev.Round,
			Seq:   ev.Seq,
			Bytes: ev.Bytes,
		}
		if ev.Exchange != 0 {
			j.Exchange = fmt.Sprintf("%016x", ev.Exchange)
		}
		out = append(out, j)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

var (
	flightDumpMu  sync.Mutex
	flightDumpOut io.Writer = os.Stderr
)

// SetFlightDumpOutput redirects automatic postmortem dumps (nil discards
// them) and returns the previous writer so tests can capture and restore.
func SetFlightDumpOutput(w io.Writer) io.Writer {
	flightDumpMu.Lock()
	defer flightDumpMu.Unlock()
	prev := flightDumpOut
	flightDumpOut = w
	return prev
}

// DumpOnce emits one postmortem dump of the ring with the given reason to
// the flight-dump writer. Only the first call on a recorder dumps —
// cascading failures (every round of a degraded exchange reporting the
// same lost peer) produce one readable postmortem, not a stack of them.
// Reports whether this call performed the dump.
func (f *FlightRecorder) DumpOnce(reason string) bool {
	if f == nil || !f.dumped.CompareAndSwap(false, true) {
		return false
	}
	flightDumpMu.Lock()
	defer flightDumpMu.Unlock()
	if flightDumpOut == nil {
		return true
	}
	fmt.Fprintf(flightDumpOut, "flightrec: postmortem dump: %s\n", reason)
	f.Dump(flightDumpOut)
	return true
}

// globalFlight backs the process-wide endpoints (/debug/flightrec,
// SIGQUIT): commands register their recorder here once at startup.
var globalFlight atomic.Pointer[FlightRecorder]

// SetGlobalFlightRecorder installs f as the process-wide recorder served
// by /debug/flightrec and dumped on SIGQUIT. Nil uninstalls.
func SetGlobalFlightRecorder(f *FlightRecorder) {
	globalFlight.Store(f)
}

// GlobalFlightRecorder returns the process-wide recorder (nil if unset).
func GlobalFlightRecorder() *FlightRecorder {
	return globalFlight.Load()
}

var flightSignalOnce sync.Once

// DumpFlightOnSignal arranges for SIGQUIT to dump the global flight
// recorder before the runtime's default goroutine dump: the handler
// writes the ring, restores the default disposition, and re-raises the
// signal. Installing twice is a no-op.
func DumpFlightOnSignal() {
	flightSignalOnce.Do(func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGQUIT)
		go func() {
			for range ch {
				if f := GlobalFlightRecorder(); f != nil {
					flightDumpMu.Lock()
					if flightDumpOut != nil {
						fmt.Fprintln(flightDumpOut, "flightrec: SIGQUIT dump")
						f.Dump(flightDumpOut)
					}
					flightDumpMu.Unlock()
				}
				signal.Reset(syscall.SIGQUIT)
				syscall.Kill(syscall.Getpid(), syscall.SIGQUIT)
			}
		}()
	})
}
