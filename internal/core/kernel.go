package core

// The owner-computes kernel surface of the Array: every compute
// operation is a windowed collective over the storage's device
// collection — one RMI per involved *device* carrying the batch of page
// regions that device owns, executed by the device-side kernel engine
// (internal/pagedev) against kernels resolved in the process-global
// registry (internal/kernel). Only kernel descriptors travel out and
// only fixed-width accumulators travel back, so compute cost scales
// with aggregate device CPU instead of the client's link bandwidth.
//
// Fill/Scale/Sum/MinMax/Norm2/Dot/Axpy are thin wrappers over the four
// generic entry points below; Apply/Reduce/ApplyBinary/ReduceBinary are
// the public escape hatch for user-registered kernels.

import (
	"context"
	"fmt"

	"oopp/internal/collection"
	"oopp/internal/kernel"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
	"oopp/internal/trace"
	"oopp/internal/wire"
)

// batches groups the pages overlapping dom by owning device, in
// first-seen device order (row-major page order, so a round-robin map
// yields balanced batches); the device list and per-device map feed
// kernelView and the member encoders. Mutating kernels run on *every*
// replica of a page (replicate=true): kernels are deterministic and
// each device applies them inside its serial mailbox, so fanning the
// same batch to the whole chain keeps replicas bitwise identical.
// Read-only reductions (replicate=false) visit one live replica per
// page, chosen by pickLive with the exclude set.
func (a *Array) batches(regs []region, replicate bool, exclude map[int]bool) (devs []int, byDev map[int][]pagedev.KernelRegion, err error) {
	byDev = make(map[int][]pagedev.KernelRegion)
	add := func(addr PageAddress, r region) {
		if _, ok := byDev[addr.Device]; !ok {
			devs = append(devs, addr.Device)
		}
		byDev[addr.Device] = append(byDev[addr.Device],
			pagedev.KernelRegion{Index: addr.Index, Box: subBoxFor(r)})
	}
	for _, r := range regs {
		if replicate {
			for _, addr := range r.chain {
				add(addr, r)
			}
			continue
		}
		addr, ok := a.pickLive(r.chain, exclude)
		if !ok {
			return nil, nil, fmt.Errorf("core: page %v: no replica left outside failed machines: %w", r.chain[0], rmi.ErrMachineDown)
		}
		add(addr, r)
	}
	return devs, byDev, nil
}

// kernelView builds the collection view of exactly the listed devices,
// honoring the array's pipelining configuration (window=1 recovers the
// §2 sequential semantics).
func (a *Array) kernelView(devs []int) *collection.Collection[*pagedev.ArrayDevice] {
	view := a.storage.Collection().Select(devs...)
	if a.pipeline {
		view.SetWindow(a.window)
	} else {
		view.SetWindow(1)
	}
	return view
}

// Apply runs the registered map kernel name in place over dom, on the
// devices that own the pages — one remote call per involved device, no
// element data on the wire. Partially covered pages are transformed
// through the same device-side sub-box path, so the read-modify-write
// is atomic within each device's serial mailbox. Batches are not
// transactional: a mid-operation failure can leave dom partially
// transformed (exactly like the per-page surface this replaces).
// Under a replicated map the batch fans out to every replica of every
// page, with primary-ack semantics: member failures that are the typed
// machine-down error are tolerated as long as every page kept at least
// one live replica (the write lands there; the dead copy is dropped and
// re-seeded at Failover).
//
// A batch racing a live migration of this Array value is refused
// all-or-nothing per device (rmi.ErrFenced): Apply parks until the map
// flips and replays exactly the refused batches at the copies' new
// addresses — each page copy sees the kernel exactly once, fenced or
// not.
func (a *Array) Apply(ctx context.Context, dom Domain, name string, params ...float64) error {
	// On a sampled trace the whole kernel application is one span whose
	// children are the per-device applyK batches.
	ctx, sp := trace.StartSpan(ctx, "kernel.apply")
	err := a.apply(ctx, dom, name, params...)
	sp.End(err != nil)
	return err
}

func (a *Array) apply(ctx context.Context, dom Domain, name string, params ...float64) error {
	if _, err := kernel.LookupMap(name, params); err != nil {
		return err
	}
	if err := a.checkDomain(dom); err != nil {
		return err
	}
	pm := a.Map()
	regs := a.regionsOf(pm, dom)
	devs, byDev, err := a.batches(regs, true, nil)
	if err != nil || len(devs) == 0 {
		return err
	}
	broadcast := func(devs []int, byDev map[int][]pagedev.KernelRegion) error {
		return a.kernelView(devs).Broadcast(ctx, "applyK", func(m collection.Member, e *wire.Encoder) error {
			pagedev.EncodeApplyK(e, name, params, byDev[m.Index])
			return nil
		})
	}
	err = broadcast(devs, byDev)
	for attempt := 0; err != nil && allFenced(err) && attempt < maxFenceRetries; attempt++ {
		newPM, werr := a.waitMapFlip(ctx, pm)
		if werr != nil {
			return err
		}
		pm = newPM
		devs, byDev = relocateKernelBatches(pm, collection.Failed(err), byDev)
		if len(devs) == 0 {
			return nil
		}
		err = broadcast(devs, byDev)
	}
	if err == nil {
		return nil
	}
	down := make(map[int]bool)
	for _, dev := range collection.Failed(err) {
		down[dev] = true
	}
	return a.coverDown(err, regs, down)
}

// Reduce folds the registered reduction kernel name over dom: each
// involved device folds its pages locally and ships only a fixed-width
// (count, accumulator) partial; the partials merge client-side in
// device order (deterministic for any associative kernel). It returns
// the combined accumulator and the number of elements folded; an empty
// dom folds nothing and returns the kernel's identity with n == 0 —
// identity-only partials are never merged, so ±Inf-style identities
// cannot poison the result.
// Under a replicated map each page is folded on one *live* replica; a
// device that fails with the typed machine-down error mid-reduction is
// excluded and the whole fold retries against the surviving replicas
// (reductions are read-only, so the retry is always safe).
func (a *Array) Reduce(ctx context.Context, dom Domain, name string, params ...float64) (acc []float64, n int64, err error) {
	ctx, sp := trace.StartSpan(ctx, "kernel.reduce")
	acc, n, err = a.reduce(ctx, dom, name, params...)
	sp.End(err != nil)
	return acc, n, err
}

func (a *Array) reduce(ctx context.Context, dom Domain, name string, params ...float64) (acc []float64, n int64, err error) {
	k, err := kernel.LookupReduce(name, params)
	if err != nil {
		return nil, 0, err
	}
	if err := a.checkDomain(dom); err != nil {
		return nil, 0, err
	}
	regs := a.regions(dom)
	if len(regs) == 0 {
		return k.NewAcc(params), 0, nil
	}
	replicas := a.Map().Replicas()
	exclude := make(map[int]bool)
	for attempt := 0; ; attempt++ {
		devs, byDev, berr := a.batches(regs, false, exclude)
		if berr != nil {
			return nil, 0, berr
		}
		total, rerr := collection.Reduce(ctx, a.kernelView(devs), "reduceK",
			func(m collection.Member, e *wire.Encoder) error {
				pagedev.EncodeApplyK(e, name, params, byDev[m.Index])
				return nil
			},
			func(_ collection.Member, d *wire.Decoder) (pagedev.ReducePartial, error) {
				return pagedev.DecodeReducePartial(d)
			},
			mergePartials(k.Merge))
		if rerr != nil {
			if attempt+1 < replicas && allMachineDown(rerr) {
				for _, dev := range collection.Failed(rerr) {
					exclude[dev] = true
				}
				continue
			}
			return nil, 0, rerr
		}
		if total.N == 0 {
			return k.NewAcc(params), 0, nil
		}
		return total.Acc, total.N, nil
	}
}

// mergePartials lifts a kernel's accumulator merge to ReducePartial,
// skipping identity-only (N == 0) partials.
func mergePartials(merge func(acc, other []float64)) func(x, y pagedev.ReducePartial) pagedev.ReducePartial {
	return func(x, y pagedev.ReducePartial) pagedev.ReducePartial {
		if y.N == 0 {
			return x
		}
		if x.N == 0 {
			return y
		}
		merge(x.Acc, y.Acc)
		x.N += y.N
		return x
	}
}

// binaryBatch is the two-operand slice of an operation owned by one
// device of a.
type binaryBatch struct {
	device  int
	regions []pagedev.BinaryRegion
}

// binaryBatches pairs each of a's regions over dom with the co-located
// page of the conformant array b, grouped by a's owning device; the
// returned device list and per-device map feed kernelView and the
// member encoders. With replicate=true (mutating kernels) a's regions
// fan to a's whole replica chain; the peer page of b is always read
// from b's first live replica; exclude filters a's devices on the
// read-only retry path.
func (a *Array) binaryBatches(b *Array, regs []region, replicate bool, exclude map[int]bool) (devs []int, byDev map[int][]pagedev.BinaryRegion, err error) {
	bpm := b.Map()
	slot := make(map[int]int)
	var out []binaryBatch
	add := func(addr PageAddress, breg pagedev.BinaryRegion) {
		breg.Index = addr.Index
		s, ok := slot[addr.Device]
		if !ok {
			s = len(out)
			slot[addr.Device] = s
			out = append(out, binaryBatch{device: addr.Device})
		}
		out[s].regions = append(out[s].regions, breg)
	}
	for _, r := range regs {
		bChain := bpm.LocateAll(r.box.Lo[0]/a.p[0], r.box.Lo[1]/a.p[1], r.box.Lo[2]/a.p[2])
		bAddr, ok := b.pickLive(bChain, nil)
		if !ok {
			return nil, nil, fmt.Errorf("core: operand page %v: no replica left: %w", bChain[0], rmi.ErrMachineDown)
		}
		breg := pagedev.BinaryRegion{
			Box:       subBoxFor(r),
			Peer:      b.storage.Device(bAddr.Device).Ref(),
			PeerIndex: bAddr.Index,
		}
		if replicate {
			for _, addr := range r.chain {
				add(addr, breg)
			}
			continue
		}
		addr, ok := a.pickLive(r.chain, exclude)
		if !ok {
			return nil, nil, fmt.Errorf("core: page %v: no replica left outside failed machines: %w", r.chain[0], rmi.ErrMachineDown)
		}
		add(addr, breg)
	}
	devs = make([]int, len(out))
	byDev = make(map[int][]pagedev.BinaryRegion, len(out))
	for i, bb := range out {
		devs[i] = bb.device
		byDev[bb.device] = bb.regions
	}
	return devs, byDev, nil
}

// ApplyBinary runs the registered two-operand kernel name over dom:
// each of a's devices transforms its regions in place, pulling the
// co-indexed region of b directly from b's device process — device to
// device, never through the client (the §5 pattern at kernel
// generality). When a page of b is co-located with its partner (the
// identical-layout case, e.g. Axpy between arrays sharing a map over
// the same machines), the pull is a shared-address-space read and no
// operand data touches the network at all.
func (a *Array) ApplyBinary(ctx context.Context, dom Domain, name string, b *Array, params ...float64) error {
	if _, err := kernel.LookupBinary(name, params); err != nil {
		return err
	}
	if err := a.conformant(b); err != nil {
		return err
	}
	if err := a.checkDomain(dom); err != nil {
		return err
	}
	pm := a.Map()
	regs := a.regionsOf(pm, dom)
	devs, byDev, err := a.binaryBatches(b, regs, true, nil)
	if err != nil || len(devs) == 0 {
		return err
	}
	broadcast := func(devs []int, byDev map[int][]pagedev.BinaryRegion) error {
		return a.kernelView(devs).Broadcast(ctx, "applyBinaryK", func(m collection.Member, e *wire.Encoder) error {
			pagedev.EncodeApplyBinaryK(e, name, params, byDev[m.Index])
			return nil
		})
	}
	err = broadcast(devs, byDev)
	// Fenced batches park and replay at the copies' post-flip addresses,
	// exactly like Apply (the peer read side is never fenced).
	for attempt := 0; err != nil && allFenced(err) && attempt < maxFenceRetries; attempt++ {
		newPM, werr := a.waitMapFlip(ctx, pm)
		if werr != nil {
			return err
		}
		pm = newPM
		devs, byDev = relocateBinaryBatches(pm, collection.Failed(err), byDev)
		if len(devs) == 0 {
			return nil
		}
		err = broadcast(devs, byDev)
	}
	if err == nil {
		return nil
	}
	down := make(map[int]bool)
	for _, dev := range collection.Failed(err) {
		down[dev] = true
	}
	return a.coverDown(err, regs, down)
}

// ReduceBinary folds the registered two-operand reduction kernel name
// over the co-indexed regions of a and b — the dot-product shape: the
// operand pages meet at a's devices, only scalars return.
func (a *Array) ReduceBinary(ctx context.Context, dom Domain, name string, b *Array, params ...float64) (acc []float64, n int64, err error) {
	k, err := kernel.LookupBinaryReduce(name, params)
	if err != nil {
		return nil, 0, err
	}
	if err := a.conformant(b); err != nil {
		return nil, 0, err
	}
	if err := a.checkDomain(dom); err != nil {
		return nil, 0, err
	}
	regs := a.regions(dom)
	if len(regs) == 0 {
		return k.NewAcc(params), 0, nil
	}
	replicas := a.Map().Replicas()
	exclude := make(map[int]bool)
	for attempt := 0; ; attempt++ {
		devs, byDev, berr := a.binaryBatches(b, regs, false, exclude)
		if berr != nil {
			return nil, 0, berr
		}
		total, rerr := collection.Reduce(ctx, a.kernelView(devs), "reduceBinaryK",
			func(m collection.Member, e *wire.Encoder) error {
				pagedev.EncodeApplyBinaryK(e, name, params, byDev[m.Index])
				return nil
			},
			func(_ collection.Member, d *wire.Decoder) (pagedev.ReducePartial, error) {
				return pagedev.DecodeReducePartial(d)
			},
			mergePartials(k.Merge))
		if rerr != nil {
			if attempt+1 < replicas && allMachineDown(rerr) {
				for _, dev := range collection.Failed(rerr) {
					exclude[dev] = true
				}
				continue
			}
			return nil, 0, rerr
		}
		if total.N == 0 {
			return k.NewAcc(params), 0, nil
		}
		return total.Acc, total.N, nil
	}
}
