package grid

// SubtractAppend appends a \ b to dst as disjoint boxes that together
// cover exactly the cells of a not contained in b, and returns it. The
// decomposition is the standard axis sweep — for each axis in order, the
// slab of a below b's low face and the slab above b's high face are split
// off and the remainder narrows to b's extent on that axis — so it is
// deterministic: equal inputs append equal box lists in equal order. At
// most 2·NDims boxes are appended. When a and b are disjoint it appends
// a; when b covers a it appends nothing. Reusing dst keeps diff-heavy
// loops allocation-free.
func SubtractAppend(dst []Box, a, b Box) []Box {
	if a.Empty() {
		return dst
	}
	iv, ok := a.Intersect(b)
	if !ok {
		return append(dst, a)
	}
	rem := a
	for axis := 0; axis < a.NDims; axis++ {
		if lo := iv.Offset[axis] - rem.Offset[axis]; lo > 0 {
			below := rem
			below.Dims[axis] = lo
			dst = append(dst, below)
		}
		if hi := rem.End(axis) - iv.End(axis); hi > 0 {
			above := rem
			above.Offset[axis] = iv.End(axis)
			above.Dims[axis] = hi
			dst = append(dst, above)
		}
		rem.Offset[axis] = iv.Offset[axis]
		rem.Dims[axis] = iv.Dims[axis]
	}
	return dst
}
