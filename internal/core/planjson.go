package core

// The plan summary is the canonical JSON shape of a compiled plan: rounds,
// per-round peer lists with packed sizes and contiguity spans. It is what the golden-plan fixtures under testdata/ pin
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

// PlanSummary is the serialized summary of one rank's compiled plan.
type PlanSummary struct {
	Rank       int            `json:"rank"`
	Rounds     int            `json:"rounds"`
	RoundPlans []RoundSummary `json:"round_plans"`
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
	return out
}
