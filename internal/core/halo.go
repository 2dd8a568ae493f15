package core

// Owner-computes data movement between distributed arrays: CopyFrom is
// the §5 copyFrom construct generalized from "pull N whole pages from
// one device" to "pull any subdomain between two distributed arrays",
// and HaloExchange builds the stencil client's ghost-shell transfer on
// top of it. In both, element data moves directly between the device
// processes that own it — the client only orchestrates region lists.

import (
	"context"
	"errors"
	"fmt"

	"oopp/internal/pagedev"
	"oopp/internal/rmi"
)

// CopyFrom copies the subdomain dom of the conformant array src into
// the same subdomain of a, entirely device-to-device: each of a's
// devices pulls its regions of dom straight from the src devices that
// own them (one pullSubBatch call per destination/source device pair),
// so no element data passes through the client. Co-located page pairs
// degrade to shared-address-space copies.
//
// Under replicated maps every destination replica pulls its copy (the
// write fan-out), each from the source page's first live replica; a
// destination replica failing with the typed machine-down error is
// tolerated as long as every region landed on at least one live
// destination replica (primary-ack, like Write).
func (a *Array) CopyFrom(ctx context.Context, src *Array, dom Domain) error {
	if err := a.conformant(src); err != nil {
		return err
	}
	if err := a.checkDomain(dom); err != nil {
		return err
	}
	spm := src.Map()
	// Group pulls by (destination device, source device): one pull call
	// moves everything a device pair exchanges. regIdx remembers which
	// region each pull serves, for the per-region ack classification.
	type pair struct{ dst, src int }
	regs := a.regions(dom)
	groups := make(map[pair][]pagedev.PullRegion)
	regIdx := make(map[pair][]int)
	var order []pair
	for i, r := range regs {
		sChain := spm.LocateAll(r.box.Lo[0]/a.p[0], r.box.Lo[1]/a.p[1], r.box.Lo[2]/a.p[2])
		sAddr, ok := src.pickLive(sChain, nil)
		if !ok {
			return fmt.Errorf("core: source page %v: no replica left: %w", sChain[0], rmi.ErrMachineDown)
		}
		for _, dAddr := range r.chain {
			p := pair{dst: dAddr.Device, src: sAddr.Device}
			if _, seen := groups[p]; !seen {
				order = append(order, p)
			}
			groups[p] = append(groups[p], pagedev.PullRegion{
				Index:     dAddr.Index,
				Box:       subBoxFor(r),
				PeerIndex: sAddr.Index,
			})
			regIdx[p] = append(regIdx[p], i)
		}
	}
	window := a.window
	if !a.pipeline {
		window = 1
	}
	acked := make([]int, len(regs))
	missed := make([]int, len(regs))
	var hard, down error
	futs := make([]*rmi.Future, 0, window)
	pairs := make([]pair, 0, window)
	settle := func() {
		for i, fut := range futs {
			err := fut.Err(ctx)
			for _, ri := range regIdx[pairs[i]] {
				switch {
				case err == nil:
					acked[ri]++
				case errors.Is(err, rmi.ErrMachineDown):
					missed[ri]++
					down = err
				default:
					if hard == nil {
						hard = err
					}
				}
			}
		}
		futs, pairs = futs[:0], pairs[:0]
	}
	for _, p := range order {
		futs = append(futs, a.storage.Device(p.dst).PullSubBatchAsync(ctx, src.storage.Device(p.src).Ref(), groups[p]))
		pairs = append(pairs, p)
		if len(futs) >= window {
			settle()
			if hard != nil {
				return hard
			}
		}
	}
	settle()
	if hard != nil {
		return hard
	}
	tolerated := 0
	for i := range regs {
		if acked[i] == 0 {
			if down != nil {
				return down
			}
			continue
		}
		tolerated += missed[i]
	}
	a.degraded.Add(int64(tolerated))
	return nil
}

// HaloExchange pulls the ghost shell of width w around slab from the
// conformant array src into a: for each axis, the face slabs directly
// below and above slab (clamped to the array bounds) are copied
// device-to-device — the ghost-plane transfer an owner-computes stencil
// client performs between sweeps, costing O(surface) traffic instead of
// the O(volume) a client-side halo read moves. Faces outside the array
// are skipped; w < 1 defaults to 1.
func (a *Array) HaloExchange(ctx context.Context, src *Array, slab Domain, w int) error {
	if err := a.conformant(src); err != nil {
		return err
	}
	if err := a.checkDomain(slab); err != nil {
		return err
	}
	if w < 1 {
		w = 1
	}
	bounds := a.Bounds()
	for axis := 0; axis < 3; axis++ {
		lo := slab
		lo.Lo[axis], lo.Hi[axis] = slab.Lo[axis]-w, slab.Lo[axis]
		hi := slab
		hi.Lo[axis], hi.Hi[axis] = slab.Hi[axis], slab.Hi[axis]+w
		for _, face := range []Domain{lo.Intersect(bounds), hi.Intersect(bounds)} {
			if face.Empty() {
				continue
			}
			if err := a.CopyFrom(ctx, src, face); err != nil {
				return err
			}
		}
	}
	return nil
}
