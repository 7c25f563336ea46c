package core

// Views of a step list (Plan.sched, laid out by scheduleCompiler.compile,
// or its bounded and delta rewrites): the direction selector and the seg
// walker the summary, the autotuner and the test hooks share.

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
