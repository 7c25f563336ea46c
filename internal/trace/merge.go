package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Cross-rank trace assembly: a compact binary codec for shipping span
// summaries over the collectives, and the straggler analysis that turns a
// merged multi-rank timeline into per-round critical-path attribution.

// mergeMagic guards the codec against garbage: version byte 1 after the
// three magic bytes.
var mergeMagic = [4]byte{'d', 't', 'r', 1}

// EncodeEvents serializes events into the compact little-endian form
// exchanged during trace gathering. Span names are length-prefixed UTF-8;
// everything else is fixed-width.
func EncodeEvents(events []Event) []byte {
	n := len(mergeMagic) + 4
	for _, e := range events {
		n += 4 + len(e.Name) + 8*4 + 4*3
	}
	buf := make([]byte, 0, n)
	buf = append(buf, mergeMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(events)))
	for _, e := range events {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Name)))
		buf = append(buf, e.Name...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(e.Rank)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Dur))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Bytes))
		buf = binary.LittleEndian.AppendUint64(buf, e.Exchange)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Round))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Peer))
	}
	return buf
}

// DecodeEvents is the inverse of EncodeEvents.
func DecodeEvents(buf []byte) ([]Event, error) {
	if len(buf) < len(mergeMagic)+4 {
		return nil, fmt.Errorf("trace: encoded events truncated (%d bytes)", len(buf))
	}
	if [4]byte(buf[:4]) != mergeMagic {
		return nil, fmt.Errorf("trace: bad encoded-events magic %x", buf[:4])
	}
	count := binary.LittleEndian.Uint32(buf[4:])
	buf = buf[8:]
	events := make([]Event, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(buf) < 4 {
			return nil, fmt.Errorf("trace: encoded event %d truncated", i)
		}
		nameLen := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		const fixed = 8*4 + 4*3
		if uint64(len(buf)) < uint64(nameLen)+fixed {
			return nil, fmt.Errorf("trace: encoded event %d truncated", i)
		}
		name := string(buf[:nameLen])
		buf = buf[nameLen:]
		e := Event{
			Name:     name,
			Rank:     int(int32(binary.LittleEndian.Uint32(buf))),
			Start:    time.Duration(binary.LittleEndian.Uint64(buf[4:])),
			Dur:      time.Duration(binary.LittleEndian.Uint64(buf[12:])),
			Bytes:    int64(binary.LittleEndian.Uint64(buf[20:])),
			Exchange: binary.LittleEndian.Uint64(buf[28:]),
			Round:    int32(binary.LittleEndian.Uint32(buf[36:])),
			Peer:     int32(binary.LittleEndian.Uint32(buf[40:])),
		}
		buf = buf[fixed:]
		events = append(events, e)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after encoded events", len(buf))
	}
	return events, nil
}

// RoundCritical attributes one exchange round's critical path: the rank
// whose round span was longest, and the peer that rank spent the most
// time waiting on within the round.
type RoundCritical struct {
	Exchange     uint64
	Round        int32 // -1 groups whole-exchange (fused-mode) spans
	CriticalRank int
	RoundDur     time.Duration // critical rank's span duration
	DominantPeer int           // -1 when the critical rank recorded no waits
	WaitDur      time.Duration // time blocked on the dominant peer
}

// WaitFrac is the share of the critical rank's round spent blocked on the
// dominant peer.
func (rc RoundCritical) WaitFrac() float64 {
	if rc.RoundDur <= 0 {
		return 0
	}
	return float64(rc.WaitDur) / float64(rc.RoundDur)
}

// StragglerReport derives per-round critical-path attribution from a
// merged multi-rank event set. Round spans (names "round-N", or
// "exchange" for fused-mode exchanges that have no rounds) define each
// (exchange, round) group's duration per rank; "wait<-P" spans on the
// slowest rank identify the peer that dominated its blocking time.
// Events without an exchange ID are ignored.
func StragglerReport(events []Event) []RoundCritical {
	type key struct {
		exch  uint64
		round int32
	}
	rounds := map[key]*RoundCritical{} // longest round span so far
	hasRounds := map[uint64]bool{}     // exchange has explicit round spans
	var order []key

	consider := func(k key, e Event) {
		rc := rounds[k]
		if rc == nil {
			rc = &RoundCritical{Exchange: k.exch, Round: k.round, CriticalRank: e.Rank, RoundDur: e.Dur, DominantPeer: -1}
			rounds[k] = rc
			order = append(order, k)
			return
		}
		if e.Dur > rc.RoundDur {
			rc.CriticalRank, rc.RoundDur = e.Rank, e.Dur
		}
	}
	for _, e := range events {
		if e.Exchange == 0 {
			continue
		}
		if strings.HasPrefix(e.Name, "round-") {
			hasRounds[e.Exchange] = true
			consider(key{e.Exchange, e.Round}, e)
		}
	}
	for _, e := range events {
		if e.Exchange == 0 || hasRounds[e.Exchange] || e.Name != "exchange" {
			continue
		}
		consider(key{e.Exchange, -1}, e)
	}
	// Second pass: on each round's critical rank, find the dominant wait.
	for _, e := range events {
		if e.Exchange == 0 || !strings.HasPrefix(e.Name, "wait<-") || e.Peer < 0 {
			continue
		}
		round := e.Round
		if !hasRounds[e.Exchange] {
			round = -1
		}
		rc := rounds[key{e.Exchange, round}]
		if rc == nil || e.Rank != rc.CriticalRank {
			continue
		}
		if e.Dur > rc.WaitDur {
			rc.WaitDur, rc.DominantPeer = e.Dur, int(e.Peer)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].exch != order[j].exch {
			return order[i].exch < order[j].exch
		}
		return order[i].round < order[j].round
	})
	out := make([]RoundCritical, 0, len(order))
	for _, k := range order {
		out = append(out, *rounds[k])
	}
	return out
}

// WriteStragglerReport renders the report as one line per round.
func WriteStragglerReport(w io.Writer, report []RoundCritical) {
	if len(report) == 0 {
		fmt.Fprintln(w, "straggler report: no exchange-scoped spans recorded")
		return
	}
	fmt.Fprintln(w, "straggler report (critical path per exchange round):")
	for _, rc := range report {
		label := fmt.Sprintf("round %d", rc.Round)
		if rc.Round < 0 {
			label = "exchange"
		}
		line := fmt.Sprintf("  exch %016x %-9s critical rank %-3d %-12v", rc.Exchange, label, rc.CriticalRank, rc.RoundDur)
		if rc.DominantPeer >= 0 {
			line += fmt.Sprintf("  dominant wait<-%-3d %v (%.0f%%)", rc.DominantPeer, rc.WaitDur, 100*rc.WaitFrac())
		} else {
			line += "  no peer waits recorded"
		}
		fmt.Fprintln(w, line)
	}
}
