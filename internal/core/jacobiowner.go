package core

// JacobiOwner is the owner-computes form of the Jacobi solver: the
// sweeps execute inside the storage device processes, on the slabs they
// already hold. Where the client-side Jacobi moves O(N³) elements per
// sweep through the client (halo-expanded slab reads + interior
// writes), this path moves only the O(N²) halo planes between
// neighbouring devices plus one residual scalar per plane — experiment
// E13 measures the difference.
//
// The decomposition unit is the page-plane: all pages sharing the
// first page-grid coordinate. The array's PageMap must be
// plane-aligned — every page of a plane on one device — which the
// striped layout guarantees by construction (plane q → device q mod D;
// with P1 == D that is exactly one RMI per device per sweep). Instead
// of a conformant scratch array, the sweep double-buffers *in place*:
// each device holds a second page bank at index offset PagesPerDevice,
// and successive sweeps alternate read/write banks, so the scratch is
// always co-located with the data and bank turnover costs nothing.
// Devices therefore need 2×PagesPerDevice capacity (create the storage
// with pagesPerDevice ≥ 2×PageMap.PagesPerDevice()).

import (
	"context"
	"fmt"
	"math"

	"oopp/internal/pagedev"
	"oopp/internal/rmi"
)

// JacobiOwner runs iters weighted-Jacobi sweeps for the 3D Laplace
// problem on a, entirely owner-computes, and returns the final residual
// (max |update|). It is semantically identical to Jacobi — the same
// stencil arithmetic in the same order — differing only in where the
// computation runs and what moves. Devices overlap their halo pulls
// with the interior sweep (posting the reads, computing on the planes
// they already hold, finishing the boundary planes on arrival); the
// overlap changes only the schedule, never a value, so the result is
// bitwise-equal to [JacobiOwnerSync].
func JacobiOwner(ctx context.Context, a *Array, iters int) (float64, error) {
	return jacobiOwner(ctx, a, iters, false)
}

// JacobiOwnerSync is JacobiOwner with the fetch-then-sweep reference
// schedule: every device waits for its halo planes before any stencil
// arithmetic. It exists as the bitwise baseline the overlapped path is
// pinned against (and for measuring what the overlap buys in E13).
func JacobiOwnerSync(ctx context.Context, a *Array, iters int) (float64, error) {
	return jacobiOwner(ctx, a, iters, true)
}

func jacobiOwner(ctx context.Context, a *Array, iters int, syncHalo bool) (float64, error) {
	N1, N2, N3 := a.Dims()
	if N1 < 3 || N2 < 3 || N3 < 3 {
		return 0, fmt.Errorf("core: Jacobi needs at least 3 points per axis, have %dx%dx%d", N1, N2, N3)
	}
	P1, P2, P3 := a.g[0], a.g[1], a.g[2]
	pm := a.Map()
	if pm.Replicas() > 1 {
		// The plane-sweep engine writes bank pages directly on the
		// devices, bypassing the replica write fan-out — it would leave
		// replicas stale. Run it on an unreplicated array (or after
		// stripping replication) instead.
		return 0, fmt.Errorf("core: JacobiOwner does not support replicated maps (%q) — sweep an unreplicated array", pm.Name())
	}
	ppd := pm.PagesPerDevice()

	// Plane ownership: every page of plane q must live on one device.
	planeDev := make([]int, P1)
	planePages := make([][]int, P1)
	for q := 0; q < P1; q++ {
		pages := make([]int, P2*P3)
		dev := -1
		for p2 := 0; p2 < P2; p2++ {
			for p3 := 0; p3 < P3; p3++ {
				addr := pm.Locate(q, p2, p3)
				if dev < 0 {
					dev = addr.Device
				} else if addr.Device != dev {
					return 0, fmt.Errorf("core: JacobiOwner needs a plane-aligned layout (every page of page-plane %d on one device; %q splits it) — use the striped map", q, pm.Name())
				}
				pages[p2*P3+p3] = addr.Index
			}
		}
		planeDev[q] = dev
		planePages[q] = pages
	}
	// Capacity: every involved device carries the second page bank.
	checked := make(map[int]bool)
	for _, d := range planeDev {
		if checked[d] {
			continue
		}
		checked[d] = true
		have, err := a.storage.Device(d).NumPages(ctx)
		if err != nil {
			return 0, err
		}
		if have < 2*ppd {
			return 0, fmt.Errorf("core: JacobiOwner needs a scratch page bank: device %d holds %d pages, want 2x%d — create the storage with pagesPerDevice >= %d", d, have, ppd, 2*ppd)
		}
	}

	window := a.window
	if !a.pipeline {
		window = 1
	}
	srcOff, dstOff := 0, ppd
	var residual float64
	for it := 0; it < iters; it++ {
		// One sweep: one jacobiPlane call per page-plane, windowed. All
		// planes read bank srcOff (which nothing writes this sweep) and
		// write disjoint pages of bank dstOff, so the fan-out is free of
		// ordering constraints; halo pulls are served by the neighbours'
		// concurrent readSubBatch even mid-sweep. Waiting out the whole
		// fan-out before swapping banks is the inter-sweep barrier.
		futs := make([]*rmi.Future, P1)
		issue := func(q int) *rmi.Future {
			args := pagedev.JacobiPlaneArgs{
				SrcOff: srcOff, DstOff: dstOff,
				QBase: q * a.p[0],
				N1:    N1, N2: N2, N3: N3,
				P2: P2, P3: P3,
				Pages: planePages[q],
			}
			if q > 0 {
				args.Lo = &pagedev.JacobiHalo{Ref: a.storage.Device(planeDev[q-1]).Ref(), Pages: planePages[q-1]}
			}
			if q < P1-1 {
				args.Hi = &pagedev.JacobiHalo{Ref: a.storage.Device(planeDev[q+1]).Ref(), Pages: planePages[q+1]}
			}
			return a.storage.Device(planeDev[q]).JacobiPlaneAsync(ctx, args)
		}
		var sweep float64
		issued := 0
		for done := 0; done < P1; done++ {
			for issued < P1 && issued < done+window {
				futs[issued] = issue(issued)
				issued++
			}
			r, err := pagedev.DecodeSum(ctx, futs[done])
			if err != nil {
				for i := done + 1; i < issued; i++ {
					_ = futs[i].Err(ctx)
				}
				return 0, err
			}
			sweep = math.Max(sweep, r)
			futs[done] = nil
		}
		residual = sweep
		srcOff, dstOff = dstOff, srcOff
	}

	// After an odd sweep count the iterate sits in the scratch bank:
	// move it home with device-local page copies (no data on the wire).
	if srcOff != 0 {
		pairs := make(map[int][]pagedev.PageCopy)
		var order []int
		for q := 0; q < P1; q++ {
			d := planeDev[q]
			if _, ok := pairs[d]; !ok {
				order = append(order, d)
			}
			for _, idx := range planePages[q] {
				pairs[d] = append(pairs[d], pagedev.PageCopy{From: idx + ppd, To: idx})
			}
		}
		futs := make([]*rmi.Future, 0, len(order))
		for _, d := range order {
			futs = append(futs, a.storage.Device(d).CopyPagesAsync(ctx, pairs[d]))
		}
		if err := rmi.WaitAllReleased(ctx, futs); err != nil {
			return 0, err
		}
	}
	return residual, nil
}
