package grid

import "sort"

// Index is a static spatial index over a set of boxes, answering "which
// boxes overlap this query box" in O(log n + k) for the box populations
// DDR works with (tilings, slab/brick decompositions, need layouts). It
// replaces the brute-force linear scans that made plan compilation and
// tiling verification quadratic as process counts grow.
//
// The structure is a bulk-loaded R-tree (Sort-Tile-Recursive packing):
// entries are sorted by their center along each axis in turn and packed
// into fixed-fanout nodes whose bounding boxes guide the query descent.
// The index is immutable after NewIndex and safe for concurrent queries.
type Index struct {
	boxes []Box // the indexed boxes, in caller order
	live  []int // indices of non-empty boxes, STR-packed order
	nodes []indexNode
	root  int // node index of the root, -1 when empty
}

// indexFanout is the R-tree node capacity. Small enough that a node scan
// stays in cache, large enough to keep the tree shallow.
const indexFanout = 16

// indexNode is one R-tree node: a bounding box over either a run of
// packed leaf entries (leaf) or a run of child nodes (internal).
type indexNode struct {
	bounds   Box
	lo, hi   int // half-open range into live (leaf) or nodes (internal)
	internal bool
}

// NewIndex builds an index over boxes. Empty boxes are never returned by
// queries. The slice is retained; callers must not mutate it afterwards.
func NewIndex(boxes []Box) *Index {
	ix := &Index{boxes: boxes, root: -1}
	for i, b := range boxes {
		if !b.Empty() {
			ix.live = append(ix.live, i)
		}
	}
	if len(ix.live) == 0 {
		return ix
	}
	ix.pack(0, len(ix.live), 0)
	// Build leaves over the packed order, then stack internal levels on
	// top until a single root remains.
	level := make([]int, 0, (len(ix.live)+indexFanout-1)/indexFanout)
	for lo := 0; lo < len(ix.live); lo += indexFanout {
		hi := min(lo+indexFanout, len(ix.live))
		bb := ix.boxes[ix.live[lo]]
		for _, id := range ix.live[lo+1 : hi] {
			bb = mergeBounds(bb, ix.boxes[id])
		}
		ix.nodes = append(ix.nodes, indexNode{bounds: bb, lo: lo, hi: hi})
		level = append(level, len(ix.nodes)-1)
	}
	for len(level) > 1 {
		next := level[:0:0]
		for lo := 0; lo < len(level); lo += indexFanout {
			hi := min(lo+indexFanout, len(level))
			bb := ix.nodes[level[lo]].bounds
			for _, n := range level[lo+1 : hi] {
				bb = mergeBounds(bb, ix.nodes[n].bounds)
			}
			// Children of one parent are built contiguously, so the run
			// [level[lo], level[hi-1]+1) addresses them directly.
			ix.nodes = append(ix.nodes, indexNode{
				bounds: bb, lo: level[lo], hi: level[hi-1] + 1, internal: true,
			})
			next = append(next, len(ix.nodes)-1)
		}
		level = next
	}
	ix.root = level[0]
	return ix
}

// mergeBounds returns the bounding box of a and b (dimensionality of a).
func mergeBounds(a, b Box) Box {
	out := a
	for i := 0; i < a.NDims; i++ {
		lo := min(a.Offset[i], b.Offset[i])
		hi := max(a.End(i), b.End(i))
		out.Offset[i] = lo
		out.Dims[i] = hi - lo
	}
	return out
}

// pack recursively sorts live[lo:hi] into STR order: sort by center along
// the current axis, slice into near-equal vertical runs, recurse on the
// next axis. The recursion bottoms out when a run fits a leaf or axes are
// exhausted.
func (ix *Index) pack(lo, hi, axis int) {
	n := hi - lo
	if n <= indexFanout {
		return
	}
	nd := ix.boxes[ix.live[lo]].NDims
	seg := ix.live[lo:hi]
	sort.Slice(seg, func(a, b int) bool {
		ba, bb := ix.boxes[seg[a]], ix.boxes[seg[b]]
		ca := 2*ba.Offset[axis] + ba.Dims[axis]
		cb := 2*bb.Offset[axis] + bb.Dims[axis]
		if ca != cb {
			return ca < cb
		}
		return seg[a] < seg[b]
	})
	if axis+1 >= nd {
		return
	}
	// Number of slices along this axis so each recursive run holds about
	// fanout^(remaining axes) entries, the standard STR slicing rule.
	leaves := (n + indexFanout - 1) / indexFanout
	slices := 1
	for s := 1; s*s <= leaves; s++ {
		slices = s
	}
	if slices <= 1 {
		ix.pack(lo, hi, axis+1)
		return
	}
	per := (n + slices - 1) / slices
	for s := lo; s < hi; s += per {
		ix.pack(s, min(s+per, hi), axis+1)
	}
}

// QueryAppend appends the indices of every indexed box overlapping q to
// dst and returns it, ascending. Reusing dst across queries keeps the hot
// compile loops allocation-free.
func (ix *Index) QueryAppend(dst []int, q Box) []int {
	if ix.root < 0 || q.Empty() {
		return dst
	}
	start := len(dst)
	dst = ix.query(dst, ix.root, q)
	seg := dst[start:]
	sort.Ints(seg)
	return dst
}

func (ix *Index) query(dst []int, node int, q Box) []int {
	n := &ix.nodes[node]
	if !q.Overlaps(n.bounds) {
		return dst
	}
	if !n.internal {
		for _, id := range ix.live[n.lo:n.hi] {
			if q.Overlaps(ix.boxes[id]) {
				dst = append(dst, id)
			}
		}
		return dst
	}
	for c := n.lo; c < n.hi; c++ {
		dst = ix.query(dst, c, q)
	}
	return dst
}
