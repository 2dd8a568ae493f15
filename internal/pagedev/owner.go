package pagedev

// The owner-computes Jacobi sweep: the structured-grid workload
// executed inside the storage devices that own the slabs. Each call
// sweeps one page-plane (all pages sharing the first page-grid
// coordinate, which a plane-aligned PageMap stores on one device): the
// device posts its halo pulls (served by the neighbours' concurrent
// readSubBatch, so neighbours mid-sweep still answer), assembles its
// slab and sweeps the interior planes while the edges are in flight,
// then finishes the boundary planes when the halos arrive, writing the
// result into a second page bank on the same device. Per sweep, only
// the O(N²) halo planes and an O(1) residual scalar cross the network —
// against the client-side path's O(N³) page traffic — and with overlap
// the halo round-trip costs nothing unless it outlasts the interior
// sweep. A sync flag forces the fetch-then-sweep schedule (the
// reference the overlap path is pinned bitwise-equal against).
//
// The sweep is a flat row kernel: each interior row is one
// kernel.JacobiRow call over the centre row (whose k±1 are the axis-3
// neighbours) and its two axis-1 and two axis-2 neighbour rows, the
// same kernel the client-side sweep runs; boundary rows and planes are
// plain copies. Page bytes unpack straight into the source slab rows and
// output rows pack straight back into page bytes. The source slab,
// output slab and halo buffers are device scratch, reused across calls
// like the page buffers the other serial methods use.

import (
	"fmt"

	"oopp/internal/kernel"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

func registerOwnerMethods(c *rmi.Class[*arrayPageDevice]) {
	// jacobiPlane(srcOff, dstOff, qbase, N1, N2, N3, P2, P3, sync,
	//             P2*P3×pageIdx,
	//             hasLo [loRef, P2*P3×loIdx],
	//             hasHi [hiRef, P2*P3×hiIdx]):
	// sweep the page-plane whose global first-axis range is
	// [qbase, qbase+n1), reading bank srcOff and writing bank dstOff
	// (offsets added to every page index). Replies the plane's max
	// |update| over interior points.
	c.Method("jacobiPlane", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		srcOff, dstOff := args.Int(), args.Int()
		qbase := args.Int()
		N1, N2, N3 := args.Int(), args.Int(), args.Int()
		P2, P3 := args.Int(), args.Int()
		sync := args.Bool()
		if err := args.Err(); err != nil {
			return err
		}
		n1, n2, n3 := a.n1, a.n2, a.n3
		if P2 <= 0 || P3 <= 0 || n2*P2 != N2 || n3*P3 != N3 {
			return fmt.Errorf("pagedev: jacobiPlane grid %dx%d of %dx%dx%d pages does not tile %dx%dx%d", P2, P3, n1, n2, n3, N1, N2, N3)
		}
		if qbase < 0 || qbase+n1 > N1 {
			return fmt.Errorf("pagedev: jacobiPlane slab [%d,%d) outside [0,%d)", qbase, qbase+n1, N1)
		}
		pages := make([]int, P2*P3)
		for i := range pages {
			pages[i] = args.Int()
		}
		readHalo := func() (ref rmi.Ref, idxs []int, ok bool) {
			ok = args.Bool()
			if !ok {
				return ref, nil, false
			}
			ref = args.Ref()
			idxs = make([]int, P2*P3)
			for i := range idxs {
				idxs[i] = args.Int()
			}
			return ref, idxs, true
		}
		loRef, loPages, hasLo := readHalo()
		hiRef, hiPages, hasHi := readHalo()
		if err := args.Err(); err != nil {
			return err
		}
		if (qbase > 0) != hasLo || (qbase+n1 < N1) != hasHi {
			return fmt.Errorf("pagedev: jacobiPlane halo presence inconsistent with slab [%d,%d) of [0,%d)", qbase, qbase+n1, N1)
		}

		// The slab holds n1 global planes plus the halo planes, indexed
		// slab[(si*N2+gj)*N3+gk]; the sweep writes into a separate output
		// slab so plane order is free. Both are device scratch, reused
		// across calls: the method is serial, and the halo buffers are
		// written only by join, before it returns.
		row0 := 0
		H := n1
		if hasLo {
			row0, H = 1, H+1
		}
		if hasHi {
			H++
		}
		a.jslab = growFloats(a.jslab, H*N2*N3)
		a.jout = growFloats(a.jout, n1*N2*N3)
		a.jhalo = growFloats(a.jhalo, 2*P2*P3*n2*n3)
		slab, out, halo := a.jslab, a.jout, a.jhalo

		// Post the halo pulls FIRST: each neighbour's concurrent
		// readSubBatch serves them while this device assembles its local
		// pages and sweeps the interior. scatter() may only run after
		// wait() succeeds.
		type haloPull struct {
			what    string
			wait    func() error
			scatter func()
		}
		postHalo := func(peer rmi.Ref, idxs []int, peerPlane, slabRow int, buf []float64, what string) haloPull {
			reqs := make([]subReq, 0, P2*P3)
			vals := make([][]float64, 0, P2*P3)
			for p2 := 0; p2 < P2; p2++ {
				for p3 := 0; p3 < P3; p3++ {
					reqs = append(reqs, subReq{
						idx: idxs[p2*P3+p3] + srcOff,
						lo:  [3]int{peerPlane, 0, 0},
						dim: [3]int{1, n2, n3},
					})
					vals = append(vals, buf[len(vals)*n2*n3:][:n2*n3])
				}
			}
			wait := a.fetchSubBatchAsync(env, peer, reqs, vals)
			scatter := func() {
				for p2 := 0; p2 < P2; p2++ {
					for p3 := 0; p3 < P3; p3++ {
						v := vals[p2*P3+p3]
						for j := 0; j < n2; j++ {
							off := (slabRow*N2+p2*n2+j)*N3 + p3*n3
							copy(slab[off:off+n3], v[j*n3:(j+1)*n3])
						}
					}
				}
			}
			return haloPull{what: what, wait: wait, scatter: scatter}
		}
		join := func(h haloPull) error {
			if err := h.wait(); err != nil {
				return fmt.Errorf("pagedev: jacobiPlane %s halo: %w", h.what, err)
			}
			h.scatter()
			return nil
		}
		var pulls []haloPull
		if hasLo {
			pulls = append(pulls, postHalo(loRef, loPages, n1-1, 0, halo[:len(halo)/2], "lo"))
		}
		if hasHi {
			pulls = append(pulls, postHalo(hiRef, hiPages, 0, H-1, halo[len(halo)/2:], "hi"))
		}
		if sync {
			// Reference schedule: all edges in hand before any arithmetic.
			for _, h := range pulls {
				if err := join(h); err != nil {
					return err
				}
			}
		}

		// Assemble the local planes of the source slab, unpacking each
		// page's rows straight from its bytes into their slab rows.
		for p2 := 0; p2 < P2; p2++ {
			for p3 := 0; p3 < P3; p3++ {
				if err := a.readInto(pages[p2*P3+p3]+srcOff, a.scratch); err != nil {
					return err
				}
				for i := 0; i < n1; i++ {
					for j := 0; j < n2; j++ {
						src := (i*n2 + j) * n3
						off := ((row0+i)*N2+p2*n2+j)*N3 + p3*n3
						if err := BytesToFloat64s(slab[off:off+n3], a.scratch[8*src:8*(src+n3)]); err != nil {
							return err
						}
					}
				}
			}
		}

		// Sweep, one global plane at a time: interior rows go through the
		// shared row kernel (the client-side sweep runs the same one, so
		// the paths agree bit for bit), boundary rows and planes carry
		// over. Each output value depends only on the source slab and
		// the residual is a max (order-independent), so the plane ORDER
		// is free: the overlap schedule sweeps every plane that needs no
		// halo while the pulls are in flight, then finishes the boundary
		// planes on arrival, and still produces bitwise-identical pages
		// and residual.
		var residual float64
		row := func(si, gj int) []float64 {
			off := (si*N2 + gj) * N3
			return slab[off : off+N3]
		}
		sweepPlane := func(i int) {
			gi, si := qbase+i, row0+i
			for gj := 0; gj < N2; gj++ {
				c := row(si, gj)
				dst := out[(i*N2+gj)*N3:][:N3]
				if gi == 0 || gi == N1-1 || gj == 0 || gj == N2-1 || N3 < 3 {
					copy(dst, c)
					continue
				}
				dst[0], dst[N3-1] = c[0], c[N3-1]
				residual = kernel.JacobiRow(dst[1:N3-1], c, row(si-1, gj), row(si+1, gj), row(si, gj-1), row(si, gj+1), residual)
			}
		}
		// Plane i reads the lo halo iff it is the slab's first plane and
		// the hi halo iff it is the last (both, when n1 == 1).
		needsHalo := func(i int) bool {
			return (hasLo && i == 0) || (hasHi && i == n1-1)
		}
		if sync {
			for i := 0; i < n1; i++ {
				sweepPlane(i)
			}
		} else {
			for i := 0; i < n1; i++ {
				if !needsHalo(i) {
					sweepPlane(i)
				}
			}
			for _, h := range pulls {
				if err := join(h); err != nil {
					return err
				}
			}
			for i := 0; i < n1; i++ {
				if needsHalo(i) {
					sweepPlane(i)
				}
			}
		}

		// Pack the output rows straight into page bytes and write bank
		// dstOff.
		for p2 := 0; p2 < P2; p2++ {
			for p3 := 0; p3 < P3; p3++ {
				for i := 0; i < n1; i++ {
					for j := 0; j < n2; j++ {
						dst := (i*n2 + j) * n3
						off := (i*N2+p2*n2+j)*N3 + p3*n3
						if err := Float64sToBytes(a.scratch[8*dst:8*(dst+n3)], out[off:off+n3]); err != nil {
							return err
						}
					}
				}
				if err := a.write(pages[p2*P3+p3]+dstOff, a.scratch); err != nil {
					return err
				}
			}
		}
		reply.PutFloat64(residual)
		return nil
	})
}

// growFloats returns buf resized to n values, reallocating only when its
// capacity is short. The contents are unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
