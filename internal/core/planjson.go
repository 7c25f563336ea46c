package core

// The plan summary is the canonical JSON shape of a compiled plan: rounds,
// per-round peer lists with packed sizes and contiguity spans, and the
// fused schedule. It is what the golden-plan fixtures under testdata/ pin
// and what the compiler-equivalence tests compare, so its field set and
// JSON tags are part of the fixture format — changing either invalidates
// checked-in fixtures.

// SpanSummary serializes a contiguity span.
type SpanSummary struct {
	Off int  `json:"off"`
	N   int  `json:"n"`
	OK  bool `json:"ok"`
}

// EntrySummary is one (round, peer) plan entry.
type EntrySummary struct {
	Peer int         `json:"peer"`
	Size int         `json:"size"`
	Span SpanSummary `json:"span"`
}

// RoundSummary is one exchange round of one rank's plan.
type RoundSummary struct {
	Sends []EntrySummary `json:"sends"`
	Recvs []EntrySummary `json:"recvs"`
}

// FusedSummary is one peer of the fused schedule.
type FusedSummary struct {
	Peer  int `json:"peer"`
	Bytes int `json:"bytes"`
	One   int `json:"one_round"`
}

// PlanSummary is the serialized summary of one rank's compiled plan.
type PlanSummary struct {
	Rank       int            `json:"rank"`
	Rounds     int            `json:"rounds"`
	RoundPlans []RoundSummary `json:"round_plans"`
	FusedSends []FusedSummary `json:"fused_sends"`
	FusedRecvs []FusedSummary `json:"fused_recvs"`
}

// summarizeRound serializes one direction of one round's step — its
// messages, peers ascending; the local move carries no wire bytes and is
// not listed.
func summarizeRound(msgs []message) []EntrySummary {
	out := []EntrySummary{}
	for _, m := range msgs {
		sp := m.segs[0].span
		out = append(out, EntrySummary{Peer: m.peer, Size: m.bytes, Span: SpanSummary{Off: sp.off, N: sp.n, OK: sp.ok}})
	}
	return out
}

// Summary flattens the plan into its canonical JSON shape. Two plans with
// equal summaries exchange exactly the same bytes between the same peers
// in the same rounds with the same fast-path decisions.
func (p *Plan) Summary() PlanSummary {
	out := PlanSummary{Rank: p.rank, Rounds: p.rounds}
	for r := range p.sched {
		st := &p.sched[r]
		out.RoundPlans = append(out.RoundPlans, RoundSummary{Sends: summarizeRound(st.sends), Recvs: summarizeRound(st.recvs)})
	}
	out.FusedSends = fusedSummary(p.sched, false)
	out.FusedRecvs = fusedSummary(p.sched, true)
	return out
}

// fusedSummary folds one direction of the schedule per peer: the bytes of
// all the peer's rounds and, when exactly one round contributes, that
// round's index (the fused message is then a single seg, eligible for the
// zero-copy send) — else -1.
func fusedSummary(sched []step, recv bool) []FusedSummary {
	out := []FusedSummary{}
	byPeer(sched, recv, func(r int, m *message) {
		if n := len(out); n == 0 || out[n-1].Peer != m.peer {
			out = append(out, FusedSummary{Peer: m.peer, One: r})
		} else {
			out[n-1].One = -1
		}
		out[len(out)-1].Bytes += m.bytes
	})
	return out
}
