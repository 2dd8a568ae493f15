package kernel

import "math"

// JacobiRow is the 7-point Jacobi stencil over the interior of one row:
// for 0 < k < len(c)-1 it sets
//
//	dst[k-1] = (up[k] + down[k] + north[k] + south[k] + c[k-1] + c[k+1]) / 6
//
// where c is the centre row, up/down its neighbours along axis 1,
// north/south its neighbours along axis 2 and c[k∓1] the axis-3
// neighbours. The summation order is fixed, so every caller computes
// the same bits. It returns max(r, |dst[k-1]-c[k]|) over the row with
// the bits of a math.Max fold, NaN and +Inf included; callers start r
// at 0 and thread it through a sweep to get its residual. The row's two
// end points are boundary values the caller carries over itself.
//
// len(c) must be at least 3; up, down, north and south must be as long
// as c, and dst must hold len(c)-2 values.
func JacobiRow(dst, c, up, down, north, south []float64, r float64) float64 {
	m := len(c) - 2
	dst = dst[:m]
	west, mid, east := c[:m], c[1:m+1], c[2:m+2]
	up, down, north, south = up[1:m+1], down[1:m+1], north[1:m+1], south[1:m+1]
	for k := range dst {
		avg := (up[k] + down[k] + north[k] + south[k] + west[k] + east[k]) / 6
		dst[k] = avg
		r = maxResidual(r, math.Abs(avg-mid[k]))
	}
	return r
}

// maxResidual is math.Max(r, x) for r and x that are never -0, small
// enough to inline: the common x ≤ r case costs one comparison, and only
// a new maximum, a NaN or a +Inf reaches math.Max itself, which keeps
// its special cases (+Inf wins over NaN, NaN over any number) and its
// bits.
func maxResidual(r, x float64) float64 {
	if x <= r {
		return r
	}
	return math.Max(r, x)
}
