package pagedev

import (
	"bytes"
	"testing"

	"oopp/internal/wire"
)

// The fuzzed device: two 2×3×4 pages on a private disk.
const fz1, fz2, fz3, fzPages = 2, 3, 4, 2

func newFuzzDevice(t *testing.T) *arrayPageDevice {
	pd, err := newPageDevice(nil, "fuzz", fzPages, fz1*fz2*fz3*8, DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	a := &arrayPageDevice{pageDevice: pd, n1: fz1, n2: fz2, n3: fz3, elems: make([]float64, fz1*fz2*fz3)}
	for idx := 0; idx < fzPages; idx++ {
		page := make([]byte, a.pageSize)
		for i := range page {
			page[i] = byte(31*idx + 7*i + 1)
		}
		if err := a.write(idx, page); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func (a *arrayPageDevice) fuzzPages(t *testing.T) [][]byte {
	out := make([][]byte, a.numPages)
	for i := range out {
		out[i] = make([]byte, a.pageSize)
		if err := a.readInto(i, out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// modelBox decodes one (idx, box) header the way the protocol defines
// it; ok is false for a truncated header, a page index out of range or
// a box that leaves the page.
func modelBox(d *wire.Decoder) (idx int, lo, dim [3]int, ok bool) {
	idx = d.Int()
	for x := range lo {
		lo[x] = d.Int()
	}
	for x := range dim {
		dim[x] = d.Int()
	}
	ok = d.Err() == nil && idx >= 0 && idx < fzPages
	for x, n := range [3]int{fz1, fz2, fz3} {
		ok = ok && lo[x] >= 0 && dim[x] >= 0 && lo[x] <= n && dim[x] <= n-lo[x]
	}
	return idx, lo, dim, ok
}

// boxOffsets lists the byte offsets of a box's rows in page order.
func boxOffsets(lo, dim [3]int) []int {
	var offs []int
	for i := 0; i < dim[0]; i++ {
		for j := 0; j < dim[1]; j++ {
			offs = append(offs, 8*(((lo[0]+i)*fz2+(lo[1]+j))*fz3+lo[2]))
		}
	}
	return offs
}

// FuzzSubBoxArgs feeds the same arbitrary bytes to the argument
// decoding of writeSub and readSubBatch on an in-process device, and
// checks both against a model of the protocol. Neither may panic. A box
// outside the page, a bad page index and a row of the wrong length are
// refused; a refused writeSub leaves every page bitwise unchanged, an
// accepted one changes exactly the box. An accepted readSubBatch
// returns each region's page bytes exactly.
func FuzzSubBoxArgs(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		a := newFuzzDevice(t)
		before := a.fuzzPages(t)

		// writeSub(index, box, rows...).
		err := a.writeSub(wire.NewDecoder(in))
		want := append([][]byte(nil), before...)
		d := wire.NewDecoder(in)
		idx, lo, dim, ok := modelBox(d)
		if ok {
			patched := bytes.Clone(before[idx])
			for _, off := range boxOffsets(lo, dim) {
				row := d.Float64sView()
				if d.Err() != nil || len(row) != 8*dim[2] {
					ok = false
					break
				}
				copy(patched[off:], row)
			}
			if ok {
				want[idx] = patched
			}
		}
		if ok != (err == nil) {
			t.Fatalf("writeSub %x: err %v, model accepts: %v", in, err, ok)
		}
		after := a.fuzzPages(t)
		for i := range after {
			if !bytes.Equal(after[i], want[i]) {
				t.Fatalf("writeSub %x (err %v): page %d is %x, want %x", in, err, i, after[i], want[i])
			}
		}

		// readSubBatch(count, count×(idx, box)).
		reply := wire.NewEncoder(0)
		err = a.readSubBatch(wire.NewDecoder(in), reply)
		d = wire.NewDecoder(in)
		count := d.Int()
		ok = d.Err() == nil
		var regions [][]byte
		for n := 0; ok && n < count; n++ {
			idx, lo, dim, boxOK := modelBox(d)
			if ok = boxOK; !ok {
				break
			}
			var region []byte
			for _, off := range boxOffsets(lo, dim) {
				region = append(region, after[idx][off:off+8*dim[2]]...)
			}
			regions = append(regions, region)
		}
		if ok != (err == nil) {
			t.Fatalf("readSubBatch %x: err %v, model accepts: %v", in, err, ok)
		}
		if err != nil {
			return
		}
		rd := wire.NewDecoder(reply.Bytes())
		for i, region := range regions {
			if got := rd.Float64sView(); rd.Err() != nil || !bytes.Equal(got, region) {
				t.Fatalf("readSubBatch %x: region %d is %x (%v), want %x", in, i, got, rd.Err(), region)
			}
		}
		if rd.Remaining() != 0 {
			t.Fatalf("readSubBatch %x: %d reply bytes past the last region", in, rd.Remaining())
		}
	})
}
