package kernel

import (
	"encoding/binary"
	"math"
	"testing"
)

// jacobiRowNaive is the per-point stencil the row kernel must match:
// one point at a time, residual folded with math.Max.
func jacobiRowNaive(dst, c, up, down, north, south []float64, r float64) float64 {
	for k := 1; k < len(c)-1; k++ {
		avg := (up[k] + down[k] + north[k] + south[k] + c[k-1] + c[k+1]) / 6
		dst[k-1] = avg
		r = math.Max(r, math.Abs(avg-c[k]))
	}
	return r
}

// fuzzRows turns fuzz bytes into five rows of length 3..34 and a
// starting residual. Every value spends one selector byte: a quarter of
// them are NaN, ±Inf or -0, the rest small multiples of 1/7 (inexact,
// so a changed summation order shows) or, for selector 7, the raw bits
// of the next eight bytes.
func fuzzRows(data []byte) (rows [5][]float64, r0 float64) {
	if len(data) == 0 {
		data = []byte{0}
	}
	pos := 0
	next := func() byte {
		b := data[pos%len(data)]
		pos++
		return b
	}
	n := 3 + int(next())%32
	r0 = [...]float64{0, 0.5, math.Inf(1), math.NaN()}[next()%4]
	for i := range rows {
		rows[i] = make([]float64, n)
		for k := range rows[i] {
			b := next()
			var v float64
			switch b % 16 {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(1)
			case 2:
				v = math.Inf(-1)
			case 3:
				v = math.Copysign(0, -1)
			case 7:
				var raw [8]byte
				for j := range raw {
					raw[j] = next()
				}
				v = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
			default:
				v = float64(int8(b)) / 7
			}
			rows[i][k] = v
		}
	}
	return rows, r0
}

// FuzzJacobiRow pins JacobiRow to the naive per-point formula bit for
// bit — every output value and the residual (whose NaN is math.Max's
// own) — on rows that mix NaN, ±Inf, -0 and arbitrary bit patterns.
func FuzzJacobiRow(f *testing.F) {
	f.Add([]byte{0, 0, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, r0 := fuzzRows(data)
		c, up, down, north, south := rows[0], rows[1], rows[2], rows[3], rows[4]
		got := make([]float64, len(c)-2)
		want := make([]float64, len(c)-2)
		gotR := JacobiRow(got, c, up, down, north, south, r0)
		wantR := jacobiRowNaive(want, c, up, down, north, south, r0)
		for k := range want {
			// Go fixes no NaN payload for arithmetic: which operand's NaN
			// an addition propagates can change with the compiler's
			// operand order, so a NaN output only has to be a NaN.
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) && !(math.IsNaN(got[k]) && math.IsNaN(want[k])) {
				t.Fatalf("dst[%d] = %v (%#x), naive %v (%#x)", k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
			}
		}
		if math.Float64bits(gotR) != math.Float64bits(wantR) {
			t.Fatalf("residual = %v (%#x), naive %v (%#x)", gotR, math.Float64bits(gotR), wantR, math.Float64bits(wantR))
		}
	})
}

// A NaN followed by +Inf must leave +Inf, as math.Max does: the case a
// bare "x > r || x != x" fold gets wrong.
func TestJacobiRowNaNThenInf(t *testing.T) {
	zero := make([]float64, 5)
	c := []float64{0, math.NaN(), 0, 0, 0}
	up := []float64{0, 0, 0, math.Inf(1), 0}
	dst := make([]float64, 3)
	if r := JacobiRow(dst, c, up, zero, zero, zero, 0); !math.IsInf(r, 1) {
		t.Fatalf("residual %v, want +Inf", r)
	}
	if r := JacobiRow(dst, c, zero, zero, zero, zero, 0); !math.IsNaN(r) {
		t.Fatalf("residual %v, want NaN", r)
	}
}
