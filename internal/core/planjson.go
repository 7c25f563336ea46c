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

// EntrySummary is one message of a round (or bounded step). Span is the
// contiguity span of a message's one seg; a message cut into several segs
// (a contested overlap's fragments) lists every seg's span in Segs, in
// wire order, and leaves Span zero.
type EntrySummary struct {
	Peer int           `json:"peer"`
	Tag  int           `json:"tag"`
	Size int           `json:"size"`
	Span SpanSummary   `json:"span"`
	Segs []SpanSummary `json:"segs,omitempty"`
}

// RoundSummary is one exchange round (or bounded step) of one rank's plan.
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

// summarizeRound serializes one direction of one step — its messages in
// step order; the local moves carry no wire bytes and are not listed.
func summarizeRound(msgs []message) []EntrySummary {
	out := []EntrySummary{}
	span := func(sp contigSpan) SpanSummary { return SpanSummary{Off: sp.off, N: sp.n, OK: sp.ok} }
	for _, m := range msgs {
		e := EntrySummary{Peer: m.peer, Tag: m.tag, Size: m.bytes}
		if len(m.segs) == 1 {
			e.Span = span(m.segs[0].span)
		} else {
			for _, sg := range m.segs {
				e.Segs = append(e.Segs, span(sg.span))
			}
		}
		out = append(out, e)
	}
	return out
}

// Summary flattens the plan into its canonical JSON shape. Two plans with
// equal summaries exchange exactly the same bytes between the same peers
// in the same rounds with the same fast-path decisions.
func (p *Plan) Summary() PlanSummary { return summarizeSteps(p.rank, p.sched) }

// summarizeSteps flattens one rank's step list into the summary shape,
// one RoundSummary per step — how the golden fixtures record a bounded
// schedule too.
func summarizeSteps(rank int, sched []step) PlanSummary {
	out := PlanSummary{Rank: rank, Rounds: len(sched)}
	for i := range sched {
		st := &sched[i]
		out.RoundPlans = append(out.RoundPlans, RoundSummary{Sends: summarizeRound(st.sends), Recvs: summarizeRound(st.recvs)})
	}
	return out
}
