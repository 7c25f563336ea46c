package core

import "sort"

// Views of a plan's round schedule (Plan.sched, laid out by
// scheduleCompiler.compile): the direction selector the walkers share and
// the peer-major regrouping behind ModePointToPointFused and the fused
// half of the plan summary.

// msgs returns one direction's messages of the step.
func (st *step) msgs(recv bool) []message {
	if recv {
		return st.recvs
	}
	return st.sends
}

// eachSeg visits every seg of one direction in a step list, local moves
// included, in schedule order.
func eachSeg(steps []step, recv bool, visit func(*seg)) {
	for i := range steps {
		st := &steps[i]
		for j := range st.selfs {
			if recv {
				visit(&st.selfs[j].dst)
			} else {
				visit(&st.selfs[j].src)
			}
		}
		for _, m := range st.msgs(recv) {
			for k := range m.segs {
				visit(&m.segs[k])
			}
		}
	}
}

// byPeer visits one direction's messages of a round schedule regrouped
// peer-major — peers ascending, rounds ascending within a peer. This is
// the order a fused message concatenates its segs in, on both ends.
func byPeer(sched []step, recv bool, visit func(r int, m *message)) {
	type ref struct {
		r int
		m *message
	}
	var refs []ref
	for r := range sched {
		ms := sched[r].msgs(recv)
		for i := range ms {
			refs = append(refs, ref{r, &ms[i]})
		}
	}
	sort.SliceStable(refs, func(a, b int) bool { return refs[a].m.peer < refs[b].m.peer })
	for _, x := range refs {
		visit(x.r, x.m)
	}
}

// fusedSteps folds the round schedule into ModePointToPointFused's: the
// whole redistribution as one step with one message per peer pair, each
// carrying that pair's per-round segs in round order, on the base tag.
// When a single round contributes a contiguous region to a peer, the
// executor sends the owned buffer's sub-slice and no staging happens at
// all. The fold copies the segs, so it is kept on the plan, and whoever
// rewrites segs in place (the pack strategy's run lists) visits it too.
func (p *Plan) fusedSteps() []step {
	if p.fused != nil {
		return p.fused
	}
	fold := func(recv bool) (msgs []message) {
		byPeer(p.sched, recv, func(_ int, m *message) {
			msgs = appendSeg(msgs, m.peer, ddrTagBase, m.segs[0])
		})
		return msgs
	}
	st := step{sends: fold(false), recvs: fold(true)}
	for r := range p.sched {
		st.selfs = append(st.selfs, p.sched[r].selfs...)
	}
	p.fused = []step{st}
	return p.fused
}
