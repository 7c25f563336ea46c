package core

import "sort"

// Compilers from a plan's sparse round tables to the executor's step
// lists (exec.go). Both are built on the first exchange that needs them
// and cached on the plan — mapping setup, and so every ModeAlltoallw
// exchange, pays nothing for them — and dropped when the tables they
// copy from change (pack-strategy run-list compilation, test hooks).

// entrySeg lifts entry i of a round table into a seg addressing buffer
// buf.
func (e *planEntries) entrySeg(i, buf int) seg {
	return seg{buf: buf, t: e.types[i], span: e.spans[i]}
}

// recvSeg is round r's receive entry i: it scatters into the need buffer
// the overlap of the peer's r-th chunk with this rank's need.
func (p *Plan) recvSeg(r, i int) seg {
	sg := p.recvE.entrySeg(i, 0)
	sg.region, _ = p.allChunks[p.recvE.peers[i]][r].Intersect(p.need)
	return sg
}

// selfMoves appends round r's local move, if any: this rank's r-th chunk
// overlapping its own need appears once in each table.
func (p *Plan) selfMoves(dst []selfMove, r int) []selfMove {
	st, ss := p.sendE.at(r, p.rank)
	if st.PackedSize() == 0 {
		return dst
	}
	rt, rs := p.recvE.at(r, p.rank)
	return append(dst, selfMove{src: seg{buf: r, t: st, span: ss}, dst: seg{t: rt, span: rs}})
}

// roundSteps compiles ModePointToPoint's schedule: one step per round
// (round r moves every rank's r-th chunk), one single-seg message per
// peer in ascending peer order, on the round's own tag.
func (p *Plan) roundSteps() []step {
	if p.roundSched != nil {
		return p.roundSched
	}
	steps := make([]step, p.rounds)
	segs := make([]seg, len(p.sendE.peers)+len(p.recvE.peers))
	msgs := make([]message, 0, len(segs))
	single := func(peer, r int, sg seg) {
		i := len(msgs)
		segs[i] = sg
		msgs = append(msgs, message{peer: peer, tag: ddrTagBase + r, bytes: sg.t.PackedSize(), segs: segs[i : i+1]})
	}
	for r := range steps {
		st := &steps[r]
		st.selfs = p.selfMoves(nil, r)
		lo := len(msgs)
		for i := p.sendE.off[r]; i < p.sendE.off[r+1]; i++ {
			if peer := p.sendE.peers[i]; peer != p.rank {
				single(peer, r, p.sendE.entrySeg(i, r))
			}
		}
		st.sends = msgs[lo:len(msgs):len(msgs)]
		lo = len(msgs)
		for i := p.recvE.off[r]; i < p.recvE.off[r+1]; i++ {
			if peer := p.recvE.peers[i]; peer != p.rank {
				single(peer, r, p.recvSeg(r, i))
			}
		}
		st.recvs = msgs[lo:len(msgs):len(msgs)]
	}
	p.roundSched = steps
	return steps
}

// byPeer visits the table's entries regrouped peer-major — peers
// ascending, rounds ascending within a peer — skipping rank's own: local
// data never becomes a message. This is the order a fused message
// concatenates its segs in, on both ends.
func (e *planEntries) byPeer(rank int, visit func(peer, r, i int)) {
	type ref struct{ peer, r, i int }
	refs := make([]ref, 0, len(e.peers))
	for r := 0; r+1 < len(e.off); r++ {
		for i := e.off[r]; i < e.off[r+1]; i++ {
			if e.peers[i] != rank {
				refs = append(refs, ref{e.peers[i], r, i})
			}
		}
	}
	sort.SliceStable(refs, func(a, b int) bool { return refs[a].peer < refs[b].peer })
	for _, x := range refs {
		visit(x.peer, x.r, x.i)
	}
}

// fusedSteps compiles ModePointToPointFused's schedule: the whole
// redistribution as one step with one message per peer pair, each
// carrying that pair's per-round overlaps in round order. When a single
// round contributes a contiguous region to a peer, the executor sends
// the owned buffer's sub-slice and no staging happens at all.
func (p *Plan) fusedSteps() []step {
	if p.fusedSched != nil {
		return p.fusedSched
	}
	fuse := func(e *planEntries, mk func(r, i int) seg) (msgs []message) {
		e.byPeer(p.rank, func(peer, r, i int) { msgs = appendSeg(msgs, peer, ddrTagBase, mk(r, i)) })
		return msgs
	}
	var st step
	st.sends = fuse(&p.sendE, func(r, i int) seg { return p.sendE.entrySeg(i, r) })
	st.recvs = fuse(&p.recvE, p.recvSeg)
	for r := 0; r < p.rounds; r++ {
		st.selfs = p.selfMoves(st.selfs, r)
	}
	p.fusedSched = []step{st}
	return p.fusedSched
}
