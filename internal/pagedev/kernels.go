package pagedev

// The device-side kernel execution engine: the server half of the
// owner-computes array surface. Each method receives a kernel name (a
// wire identifier resolved in the process-global internal/kernel
// registry) plus a batch of page regions, and runs the kernel where the
// pages live — one RMI per *device* replaces one RMI per *page*, and
// for reductions only a fixed-width accumulator crosses the network.
//
// Method concurrency classes (they matter — see the mailbox rules in
// the rmi package doc):
//
//	applyK, reduceK, applyAllK, reduceAllK   serial (use object buffers)
//	applyBinaryK, reduceBinaryK, pullSubBatch serial; pull peer operands
//	                                          device-to-device
//	readSubBatch                              CONCURRENT: serves peer
//	                                          pulls and client
//	                                          Array.Read while this
//	                                          object's mailbox is busy
//	                                          (two devices mid-sweep can
//	                                          exchange halos without
//	                                          deadlock); uses only
//	                                          caller-owned buffers and
//	                                          ships region rows as raw
//	                                          page bytes
//
// Batches are not transactional: a mid-batch failure leaves earlier
// regions applied, exactly like a mid-loop failure of the per-page
// surface it replaces. The one all-or-nothing guarantee is the
// migration fence (fence.go): every mutating batch pre-scans its
// destination pages and refuses the WHOLE batch typed (rmi.ErrFenced)
// if any is mid-migration, so a caller can replay the identical batch
// after the page map flips without double-applying a kernel.

import (
	"context"
	"fmt"

	"oopp/internal/bufpool"
	"oopp/internal/kernel"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// subReq addresses one sub-box of one page for a batched read.
type subReq struct {
	idx int
	lo  [3]int
	dim [3]int
}

func (r subReq) size() int { return r.dim[0] * r.dim[1] * r.dim[2] }

// reqIndices projects a region batch to its page indices, for the
// migration-fence pre-scan.
func reqIndices(reqs []subReq) []int {
	idx := make([]int, len(reqs))
	for i, rq := range reqs {
		idx[i] = rq.idx
	}
	return idx
}

// boxRuns is the stride-aware row engine: it visits the elements of a
// sub-box of an n1×n2×n3 page in row-major order, as (offset, length)
// element runs, coalescing rows that are adjacent in memory into
// maximal contiguous runs — whole j-planes when the box spans full
// axis-3 rows, one flat slab when it spans full planes, otherwise one
// run per axis-3 row. Kernels then run one long sequential loop instead
// of dim[0]*dim[1] short ones: the per-call overhead vanishes and the
// inner loops auto-vectorize. Element order is preserved exactly, so
// sequential folds (sum, dot) stay bitwise identical to the
// row-at-a-time schedule.
func boxRuns(n2, n3 int, lo, dim [3]int, fn func(off, n int)) {
	if lo[2] == 0 && dim[2] == n3 {
		if lo[1] == 0 && dim[1] == n2 {
			fn(lo[0]*n2*n3, dim[0]*n2*n3)
			return
		}
		for i := 0; i < dim[0]; i++ {
			fn(((lo[0]+i)*n2+lo[1])*n3, dim[1]*n3)
		}
		return
	}
	for i := 0; i < dim[0]; i++ {
		for j := 0; j < dim[1]; j++ {
			fn(((lo[0]+i)*n2+(lo[1]+j))*n3+lo[2], dim[2])
		}
	}
}

// forEachRun visits the boxRuns of a sub-box as slices of a page's
// element buffer.
func forEachRun(elems []float64, n2, n3 int, lo, dim [3]int, fn func(run []float64)) {
	boxRuns(n2, n3, lo, dim, func(off, n int) { fn(elems[off : off+n]) })
}

// forEachByteRun visits the boxRuns of a sub-box as slices of
// little-endian page bytes, 8 per element. The sub-box lanes use it to
// move rows between page buffers and frames with plain copies.
func forEachByteRun(page []byte, n2, n3 int, lo, dim [3]int, fn func(run []byte)) {
	boxRuns(n2, n3, lo, dim, func(off, n int) { fn(page[8*off : 8*(off+n)]) })
}

// gatherRowsFromBytes unpacks just the rows of a sub-box straight from
// little-endian page bytes into dst, row-major — the co-located halo
// pull converts O(box) elements, not O(page) (a halo plane is 1/n1 of
// its page).
func gatherRowsFromBytes(page []byte, n2, n3 int, lo, dim [3]int, dst []float64) error {
	if len(dst) != dim[0]*dim[1]*dim[2] {
		return fmt.Errorf("pagedev: gather %d values into %d", dim[0]*dim[1]*dim[2], len(dst))
	}
	pos := 0
	forEachByteRun(page, n2, n3, lo, dim, func(run []byte) {
		n := len(run) / 8
		_ = BytesToFloat64s(dst[pos:pos+n], run)
		pos += n
	})
	return nil
}

// decodeKernelHeader reads the (name, params) prefix shared by every
// kernel method.
func decodeKernelHeader(args *wire.Decoder) (name string, params []float64, err error) {
	name = args.String()
	params = args.Float64s()
	return name, params, args.Err()
}

// fetchSubBatch pulls the row-packed values of each request from a peer
// device into the caller-owned dst slices (dst[i] must have size
// reqs[i].size()). Co-located peers are read directly through their
// thread-safe store; remote peers are served by their concurrent
// readSubBatch method, so a peer that is itself mid-method still
// answers — this is what lets two devices exchange halos while both
// are inside a sweep.
func (a *arrayPageDevice) fetchSubBatch(env *rmi.Env, peer rmi.Ref, reqs []subReq, dst [][]float64) error {
	if len(reqs) == 0 {
		return nil
	}
	if local, ok := localArrayDevice(env, peer); ok {
		buf := bufpool.GetLen(local.pageSize)
		defer bufpool.Put(buf)
		for i, rq := range reqs {
			if rq.size() == 0 {
				continue
			}
			if err := local.readInto(rq.idx, buf); err != nil {
				return err
			}
			if err := gatherRowsFromBytes(buf, local.n2, local.n3, rq.lo, rq.dim, dst[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if env.Client == nil {
		return fmt.Errorf("pagedev: machine %d has no outbound client", env.Machine)
	}
	d, err := env.Client.Call(env.Ctx(), peer, "readSubBatch", func(e *wire.Encoder) error {
		e.PutInt(len(reqs))
		for _, rq := range reqs {
			putSubBox(e, rq.idx, SubBox{Lo: rq.lo, Dim: rq.dim})
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer d.Release()
	for i := range reqs {
		d.Float64sInto(dst[i])
	}
	return d.Err()
}

// fetchSub is fetchSubBatch for a single region.
func (a *arrayPageDevice) fetchSub(env *rmi.Env, peer rmi.Ref, rq subReq, dst []float64) error {
	return a.fetchSubBatch(env, peer, []subReq{rq}, [][]float64{dst})
}

// fetchSubBatchAsync begins a fetchSubBatch and returns a wait
// function that fills dst and reports the outcome — the overlap half
// of the halo lane: the caller posts its pulls, computes on data it
// already holds while the peer's concurrent readSubBatch serves them,
// and only joins when it needs the edges. Co-located peers have no
// latency to hide, so their pull completes before returning and the
// wait is a no-op.
func (a *arrayPageDevice) fetchSubBatchAsync(env *rmi.Env, peer rmi.Ref, reqs []subReq, dst [][]float64) (wait func() error) {
	done := func(err error) func() error { return func() error { return err } }
	if len(reqs) == 0 {
		return done(nil)
	}
	if _, ok := localArrayDevice(env, peer); ok {
		return done(a.fetchSubBatch(env, peer, reqs, dst))
	}
	if env.Client == nil {
		return done(fmt.Errorf("pagedev: machine %d has no outbound client", env.Machine))
	}
	fut := env.Client.CallAsync(env.Ctx(), peer, "readSubBatch", func(e *wire.Encoder) error {
		e.PutInt(len(reqs))
		for _, rq := range reqs {
			putSubBox(e, rq.idx, SubBox{Lo: rq.lo, Dim: rq.dim})
		}
		return nil
	})
	return func() error {
		d, err := fut.Wait(context.Background())
		if err != nil {
			return err
		}
		defer d.Release()
		for i := range reqs {
			d.Float64sInto(dst[i])
		}
		return d.Err()
	}
}

// readSubBatch serves readSubBatch(count, count×(idx, box)): for each
// region a PutFloat64s value of its rows, appended as raw page bytes.
// Each page is read whole into a pooled buffer, so every region is one
// atomic snapshot of its page (the backing store guards whole-page
// reads and writes with one lock); nothing else is shared, which is
// what lets the method run outside the mailbox.
func (a *arrayPageDevice) readSubBatch(args *wire.Decoder, reply *wire.Encoder) error {
	count := args.Int()
	if err := args.Err(); err != nil {
		return err
	}
	buf := bufpool.GetLen(a.pageSize)
	defer bufpool.Put(buf)
	for n := 0; n < count; n++ {
		idx := args.Int()
		lo, dim, err := a.decodeSubBox(args)
		if err != nil {
			return err
		}
		if err := a.checkIndex(idx); err != nil {
			return err
		}
		size := dim[0] * dim[1] * dim[2]
		reply.PutUvarint(uint64(size))
		if size == 0 {
			continue
		}
		if err := a.readInto(idx, buf); err != nil {
			return err
		}
		forEachByteRun(buf, a.n2, a.n3, lo, dim, reply.AppendRaw)
	}
	return nil
}

// registerKernelMethods installs the kernel execution protocol on the
// ArrayPageDevice class.
func registerKernelMethods(c *rmi.Class[*arrayPageDevice]) {
	// applyK(name, params, count, count×(idx, box)): run a map kernel in
	// place over each listed region. Replies with the element count
	// touched.
	c.Method("applyK", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		name, params, err := decodeKernelHeader(args)
		if err != nil {
			return err
		}
		k, err := kernel.LookupMap(name, params)
		if err != nil {
			return err
		}
		count := args.Int()
		if err := args.Err(); err != nil {
			return err
		}
		// Decode the whole batch, then fence-scan it before touching any
		// page: a batch refused by the migration fence applies nowhere, so
		// the caller can replay it verbatim against the flipped map without
		// double-applying a non-idempotent kernel.
		regions := make([]subReq, 0, count)
		for n := 0; n < count; n++ {
			idx := args.Int()
			lo, dim, err := a.decodeSubBox(args)
			if err != nil {
				return err
			}
			regions = append(regions, subReq{idx: idx, lo: lo, dim: dim})
		}
		if err := a.checkFenceBatch(reqIndices(regions)); err != nil {
			return err
		}
		touched := 0
		for _, rq := range regions {
			if rq.size() == 0 {
				continue
			}
			// A write-only kernel over a whole page needs no prior load
			// (Fill stays write-only, as the per-page path it replaced).
			wholePage := rq.size() == len(a.elems)
			if !(k.Overwrites && wholePage) {
				if err := a.loadPage(rq.idx); err != nil {
					return err
				}
			}
			forEachRun(a.elems, a.n2, a.n3, rq.lo, rq.dim, func(run []float64) { k.Fn(run, params) })
			if err := a.storePage(rq.idx); err != nil {
				return err
			}
			touched += rq.size()
		}
		reply.PutVarint(int64(touched))
		return nil
	})

	// reduceK(name, params, count, count×(idx, box)): fold a reduction
	// kernel over the listed regions; only (count, accumulator) returns.
	// Empty regions are skipped — they contribute nothing, so the
	// reduction identity (e.g. ±Inf for minmax) can never leak into a
	// combined result.
	c.Method("reduceK", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		name, params, err := decodeKernelHeader(args)
		if err != nil {
			return err
		}
		k, err := kernel.LookupReduce(name, params)
		if err != nil {
			return err
		}
		count := args.Int()
		if err := args.Err(); err != nil {
			return err
		}
		acc := k.NewAcc(params)
		folded := 0
		for n := 0; n < count; n++ {
			idx := args.Int()
			lo, dim, err := a.decodeSubBox(args)
			if err != nil {
				return err
			}
			rq := subReq{idx: idx, lo: lo, dim: dim}
			if rq.size() == 0 {
				continue
			}
			if err := a.loadPage(idx); err != nil {
				return err
			}
			forEachRun(a.elems, a.n2, a.n3, lo, dim, func(run []float64) { k.Row(acc, run, params) })
			folded += rq.size()
		}
		reply.PutVarint(int64(folded))
		reply.PutFloat64s(acc)
		return nil
	})

	// applyBinaryK(name, params, count, count×(idx, box, peerRef,
	// peerIdx)): dst region op= the co-indexed region of a peer device's
	// page, pulled device-to-device (locally when co-located).
	c.Method("applyBinaryK", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		name, params, err := decodeKernelHeader(args)
		if err != nil {
			return err
		}
		k, err := kernel.LookupBinary(name, params)
		if err != nil {
			return err
		}
		count := args.Int()
		if err := args.Err(); err != nil {
			return err
		}
		// Decode-all-then-fence-scan, like applyK: the batch mutates no
		// page unless every destination page is unfenced.
		type binReq struct {
			rq      subReq
			peer    rmi.Ref
			peerIdx int
		}
		regions := make([]binReq, 0, count)
		dst := make([]int, 0, count)
		for n := 0; n < count; n++ {
			idx := args.Int()
			lo, dim, err := a.decodeSubBox(args)
			if err != nil {
				return err
			}
			peer := args.Ref()
			peerIdx := args.Int()
			if err := args.Err(); err != nil {
				return err
			}
			regions = append(regions, binReq{rq: subReq{idx: idx, lo: lo, dim: dim}, peer: peer, peerIdx: peerIdx})
			dst = append(dst, idx)
		}
		if err := a.checkFenceBatch(dst); err != nil {
			return err
		}
		var peerBuf []float64
		touched := 0
		for _, br := range regions {
			size := br.rq.size()
			if size == 0 {
				continue
			}
			if cap(peerBuf) < size {
				peerBuf = make([]float64, size)
			}
			vals := peerBuf[:size]
			if err := a.fetchSub(env, br.peer, subReq{idx: br.peerIdx, lo: br.rq.lo, dim: br.rq.dim}, vals); err != nil {
				return err
			}
			if err := a.loadPage(br.rq.idx); err != nil {
				return err
			}
			pos := 0
			forEachRun(a.elems, a.n2, a.n3, br.rq.lo, br.rq.dim, func(run []float64) {
				k.Fn(run, vals[pos:pos+len(run)], params)
				pos += len(run)
			})
			if err := a.storePage(br.rq.idx); err != nil {
				return err
			}
			touched += size
		}
		reply.PutVarint(int64(touched))
		return nil
	})

	// reduceBinaryK: the two-operand reduction (dot products) — like
	// applyBinaryK but folding into an accumulator instead of writing.
	c.Method("reduceBinaryK", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		name, params, err := decodeKernelHeader(args)
		if err != nil {
			return err
		}
		k, err := kernel.LookupBinaryReduce(name, params)
		if err != nil {
			return err
		}
		count := args.Int()
		if err := args.Err(); err != nil {
			return err
		}
		acc := k.NewAcc(params)
		var peerBuf []float64
		folded := 0
		for n := 0; n < count; n++ {
			idx := args.Int()
			lo, dim, err := a.decodeSubBox(args)
			if err != nil {
				return err
			}
			peer := args.Ref()
			peerIdx := args.Int()
			if err := args.Err(); err != nil {
				return err
			}
			rq := subReq{idx: idx, lo: lo, dim: dim}
			size := rq.size()
			if size == 0 {
				continue
			}
			if cap(peerBuf) < size {
				peerBuf = make([]float64, size)
			}
			vals := peerBuf[:size]
			if err := a.fetchSub(env, peer, subReq{idx: peerIdx, lo: lo, dim: dim}, vals); err != nil {
				return err
			}
			if err := a.loadPage(idx); err != nil {
				return err
			}
			pos := 0
			forEachRun(a.elems, a.n2, a.n3, lo, dim, func(run []float64) {
				k.Row(acc, run, vals[pos:pos+len(run)], params)
				pos += len(run)
			})
			folded += size
		}
		reply.PutVarint(int64(folded))
		reply.PutFloat64s(acc)
		return nil
	})

	// applyAllK(name, params): run a map kernel over every physical page
	// — the whole-device broadcast half of a storage-wide operation
	// (FillAll generalized to any registered kernel).
	c.Method("applyAllK", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		name, params, err := decodeKernelHeader(args)
		if err != nil {
			return err
		}
		k, err := kernel.LookupMap(name, params)
		if err != nil {
			return err
		}
		if err := a.checkFenceAll(); err != nil {
			return err
		}
		for idx := 0; idx < a.numPages; idx++ {
			// A whole page is one contiguous run; write-only kernels
			// (Fill) skip the load entirely.
			if !k.Overwrites {
				if err := a.loadPage(idx); err != nil {
					return err
				}
			}
			k.Fn(a.elems, params)
			if err := a.storePage(idx); err != nil {
				return err
			}
		}
		reply.PutVarint(int64(a.numPages * len(a.elems)))
		return nil
	})

	// reduceAllK(name, params): fold a reduction kernel over every
	// physical page; replies (count, accumulator).
	c.Method("reduceAllK", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		name, params, err := decodeKernelHeader(args)
		if err != nil {
			return err
		}
		k, err := kernel.LookupReduce(name, params)
		if err != nil {
			return err
		}
		acc := k.NewAcc(params)
		for idx := 0; idx < a.numPages; idx++ {
			if err := a.loadPage(idx); err != nil {
				return err
			}
			k.Row(acc, a.elems, params)
		}
		reply.PutVarint(int64(a.numPages * len(a.elems)))
		reply.PutFloat64s(acc)
		return nil
	})

	// readSubBatch(count, count×(idx, box)): serve the row-packed values
	// of each region. CONCURRENT — runs outside the mailbox with its own
	// buffers, so this device can serve peer pulls (halo planes, binary
	// operands) and client reads even while one of its own serial
	// methods is running.
	c.ConcurrentMethod("readSubBatch", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		return a.readSubBatch(args, reply)
	})

	// pullSubBatch(peerRef, count, count×(localIdx, box, peerIdx)):
	// overwrite each local region with the co-indexed region pulled from
	// the peer device — the owner-computes transfer primitive (the §5
	// copyFrom generalized from whole page runs to sub-box batches
	// between two distributed arrays). One peer per call; the client
	// groups regions by (destination device, source device).
	c.Method("pullSubBatch", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		peer := args.Ref()
		count := args.Int()
		if err := args.Err(); err != nil {
			return err
		}
		reqs := make([]subReq, 0, count)
		local := make([]subReq, 0, count)
		for n := 0; n < count; n++ {
			idx := args.Int()
			lo, dim, err := a.decodeSubBox(args)
			if err != nil {
				return err
			}
			peerIdx := args.Int()
			if err := args.Err(); err != nil {
				return err
			}
			local = append(local, subReq{idx: idx, lo: lo, dim: dim})
			reqs = append(reqs, subReq{idx: peerIdx, lo: lo, dim: dim})
		}
		if err := a.checkFenceBatch(reqIndices(local)); err != nil {
			return err
		}
		// One batched pull for the whole call, then scatter locally.
		vals := make([][]float64, len(reqs))
		for i, rq := range reqs {
			vals[i] = make([]float64, rq.size())
		}
		if err := a.fetchSubBatch(env, peer, reqs, vals); err != nil {
			return err
		}
		touched := 0
		for i, lr := range local {
			if lr.size() == 0 {
				continue
			}
			if err := a.loadPage(lr.idx); err != nil {
				return err
			}
			pos := 0
			forEachRun(a.elems, a.n2, a.n3, lr.lo, lr.dim, func(run []float64) {
				copy(run, vals[i][pos:pos+len(run)])
				pos += len(run)
			})
			if err := a.storePage(lr.idx); err != nil {
				return err
			}
			touched += lr.size()
		}
		reply.PutVarint(int64(touched))
		return nil
	})

	// copyPages(count, count×(srcIdx, dstIdx)): device-local page copies
	// (bank moves of the owner-computes Jacobi; no data leaves the
	// device).
	c.Method("copyPages", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		count := args.Int()
		if err := args.Err(); err != nil {
			return err
		}
		pairs := make([][2]int, 0, count)
		dsts := make([]int, 0, count)
		for n := 0; n < count; n++ {
			src := args.Int()
			dst := args.Int()
			if err := args.Err(); err != nil {
				return err
			}
			pairs = append(pairs, [2]int{src, dst})
			dsts = append(dsts, dst)
		}
		if err := a.checkFenceBatch(dsts); err != nil {
			return err
		}
		for _, p := range pairs {
			if err := a.readInto(p[0], a.scratch); err != nil {
				return err
			}
			if err := a.write(p[1], a.scratch); err != nil {
				return err
			}
		}
		return nil
	})
}
