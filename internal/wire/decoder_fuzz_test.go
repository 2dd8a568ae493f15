package wire

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecoder feeds every bulk reader the same arbitrary frame. None may
// panic, whatever the length prefix claims: the seed corpus in
// testdata/fuzz holds prefixes of 1<<61 and 1<<60, whose byte counts
// (8n and 16n) wrap uint64 to 0 and once passed the bounds checks into
// makeslice. A reader that fails returns nothing; one that succeeds
// consumed exactly its prefix and payload, and the float64 readers
// (Float64s, Float64sInto, Float64sView) agree bit for bit.
func FuzzDecoder(f *testing.F) {
	e := NewEncoder(0)
	e.PutFloat64s([]float64{1, math.Copysign(0, -1), math.Inf(1), math.NaN()})
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		// The payload size a length prefix claims, or -1 if there is no
		// readable prefix.
		claimed := func(width uint64) (n uint64, end int) {
			d := NewDecoder(in)
			n = d.Uvarint()
			if d.Err() != nil || n > uint64(d.Remaining())/width {
				return 0, -1
			}
			return n, len(in) - d.Remaining() + int(n*width)
		}
		check := func(name string, d *Decoder, gotNil bool, width uint64) {
			t.Helper()
			_, end := claimed(width)
			if d.Err() != nil {
				if !gotNil {
					t.Fatalf("%s failed (%v) but returned data", name, d.Err())
				}
				return
			}
			if end < 0 || len(in)-d.Remaining() != end {
				t.Fatalf("%s succeeded at offset %d, prefix claims %d", name, len(in)-d.Remaining(), end)
			}
		}

		d := NewDecoder(in)
		vals := d.Float64s()
		check("Float64s", d, vals == nil, 8)

		d = NewDecoder(in)
		view := d.Float64sView()
		check("Float64sView", d, view == nil, 8)
		if vals != nil {
			if len(view) != 8*len(vals) {
				t.Fatalf("Float64sView has %d bytes for %d values", len(view), len(vals))
			}
			for i, v := range vals {
				if got := NewDecoder(view[8*i:]).Float64(); math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("value %d: view %x, Float64s %x", i, math.Float64bits(got), math.Float64bits(v))
				}
			}
			into := make([]float64, len(vals))
			d = NewDecoder(in)
			d.Float64sInto(into)
			check("Float64sInto", d, false, 8)
			for i := range into {
				if math.Float64bits(into[i]) != math.Float64bits(vals[i]) {
					t.Fatalf("value %d: Float64sInto %v, Float64s %v", i, into[i], vals[i])
				}
			}
		}
		// A wrong-length destination is refused, never overrun.
		d = NewDecoder(in)
		d.Float64sInto(make([]float64, 3))
		if n, _ := claimed(8); d.Err() == nil && n != 3 {
			t.Fatalf("Float64sInto filled 3 values from a prefix of %d", n)
		}

		d = NewDecoder(in)
		cs := d.Complex128s()
		check("Complex128s", d, cs == nil, 16)
		if cs != nil {
			into := make([]complex128, len(cs))
			d = NewDecoder(in)
			d.Complex128sInto(into)
			check("Complex128sInto", d, false, 16)
		}

		d = NewDecoder(in)
		b := d.BytesView()
		check("BytesView", d, b == nil, 1)
		if b != nil && !bytes.Equal(b, in[len(in)-d.Remaining()-len(b):len(in)-d.Remaining()]) {
			t.Fatal("BytesView does not alias the bytes it consumed")
		}

		// Ints are varints: the prefix bounds the count, not the size.
		d = NewDecoder(in)
		if ints := d.Ints(); d.Err() != nil && ints != nil {
			t.Fatalf("Ints failed (%v) but returned data", d.Err())
		} else if n, _ := claimed(1); d.Err() == nil && uint64(len(ints)) != n {
			t.Fatalf("Ints returned %d values for a prefix of %d", len(ints), n)
		}
	})
}
