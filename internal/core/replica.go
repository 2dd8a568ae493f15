package core

// k-way page replication and heartbeat-triggered failover — ROADMAP
// item 2, the data-intensive reading of the paper's persistent-process
// §5: a page is no longer "as durable as the one device that owns it".
//
// NewReplicatedMap (pagemap.go) fills a placement table whose chains
// hold k copies of every page, rotated across devices into k banks; the
// layout stays injective, every device carries the same page count
// (balanced capacity overhead of exactly k×), and replica sets never
// share a device when k ≤ D.
//
// Write semantics ("primary-ack"): mutating operations fan out to the
// whole replica set through the same windowed pipelines the
// non-replicated paths use; the operation succeeds iff at least one
// replica of every touched page acknowledges, and replicas that fail
// with the typed ErrMachineDown are tolerated (counted in
// DegradedWrites) — any other error still fails the operation. Kernels
// are deterministic, so applying the same batch at every replica keeps
// replica contents bitwise identical without a coordination round.
//
// Read semantics: element reads and reductions are served by a *live*
// replica of the chain, rotated per call (the failure detector's
// verdicts narrow the candidates; a call-time race that still hits a
// dying machine retries on the next replica). Replication therefore
// doubles as read scaling for hot pages: one client's repeated reads of
// the same page spread across its whole replica set.
//
// Failover (Array.Failover) re-mints the page map after the heartbeat
// declares machines down: dead devices are dropped from every chain
// (the first survivor is promoted to acting primary), and lost
// replicas are re-seeded onto spare page slots of surviving devices
// via the device-to-device pullSubBatch lane — no element data passes
// through the client. Pages whose whole chain died are reported as
// Lost; for the k=1 case, recover.go's checkpoint/cold-recovery path
// restores them from a persist store on a surviving machine.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"oopp/internal/pagedev"
	"oopp/internal/rmi"
	"oopp/internal/trace"
)

// allMachineDown reports whether every leaf failure in err (an
// errors.Join tree of MemberErrors, or a single wrapped error) is the
// typed machine-down failure — the only class of error replica
// tolerance may absorb.
func allMachineDown(err error) bool {
	if err == nil {
		return true
	}
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		for _, sub := range u.Unwrap() {
			if !allMachineDown(sub) {
				return false
			}
		}
		return true
	}
	return errors.Is(err, rmi.ErrMachineDown)
}

// machineUp reports whether the storage device's machine is not
// currently marked down by the failure detector.
func (a *Array) machineUp(dev int) bool {
	client := a.storage.Client()
	if client == nil {
		return true
	}
	return client.MachineDown(a.storage.MachineOf(dev)) == nil
}

// pickLive returns a replica in the chain whose device is not excluded
// and whose machine is not marked down, rotating across the live
// candidates (per-Array round-robin counter) so a hot page's read load
// spreads over its whole replica set instead of hammering the chain
// primary. When every replica is down it returns the first non-excluded
// one (so the operation fails with the typed machine-down error instead
// of inventing its own), and ok=false only when exclusion leaves no
// replica at all.
func (a *Array) pickLive(chain []PageAddress, exclude map[int]bool) (PageAddress, bool) {
	var fallback *PageAddress
	live := make([]PageAddress, 0, len(chain))
	for i := range chain {
		if exclude[chain[i].Device] {
			continue
		}
		if fallback == nil {
			fallback = &chain[i]
		}
		if a.machineUp(chain[i].Device) {
			live = append(live, chain[i])
		}
	}
	switch len(live) {
	case 0:
		if fallback != nil {
			return *fallback, true
		}
		return PageAddress{}, false
	case 1:
		return live[0], true
	default:
		return live[a.rr.Add(1)%uint64(len(live))], true
	}
}

// coverDown classifies a replica fan-out failure: it returns nil —
// absorbing the error as a degraded write — iff every leaf failure is
// the typed machine-down error and every region in regs still has at
// least one replica on a device outside the failed set. downDevs is
// the set of failed device indices (collection member indices are
// global device indices).
func (a *Array) coverDown(err error, regs []region, downDevs map[int]bool) error {
	if err == nil {
		return nil
	}
	if !allMachineDown(err) {
		return err
	}
	tolerated := 0
	for _, r := range regs {
		covered := false
		n := 0
		for _, addr := range r.chain {
			if downDevs[addr.Device] {
				n++
			} else {
				covered = true
			}
		}
		if !covered {
			return err
		}
		tolerated += n
	}
	a.degraded.Add(int64(tolerated))
	return nil
}

// DegradedWrites returns the number of replica writes this client has
// tolerated against machines marked down (each tolerated region/replica
// pair counts once). Nonzero means the array is running below its
// nominal replication factor; run Failover to re-mint the map and
// re-seed.
func (a *Array) DegradedWrites() int64 { return a.degraded.Load() }

// FailoverReport summarizes one Failover pass.
type FailoverReport struct {
	DeadDevices []int // storage device indices declared dead
	Promoted    int   // pages whose acting primary changed
	Reseeded    int   // replicas rebuilt onto survivors' spare slots
	Degraded    int   // pages left below the nominal replica count
	Lost        []int // linear page indices with no surviving replica
}

// Failover re-mints the page map after the failure detector declares
// machines dead, restoring full service on the survivors:
//
//   - every dead device is dropped from every replica chain, promoting
//     the first survivor to acting primary;
//   - each lost replica is re-seeded onto a surviving device that has
//     spare page slots beyond the map's nominal requirement (devices
//     provisioned with pagesPerDevice > map.PagesPerDevice() have
//     them), copied device-to-device from the acting primary via the
//     pullSubBatch lane;
//   - the array's map is atomically replaced with the re-minted table,
//     so subsequent reads, writes, and kernels address only survivors.
//
// Pages whose entire chain died are reported in Lost and keep failing
// typed; with k=1 use the checkpoint/cold-recovery path instead.
// Failover is idempotent — re-running it with the same dead set is a
// no-op — and must not race other operations *on the same Array
// value* (separate Array clients over the same storage are fine; each
// runs its own failover when it observes the verdict).
func (a *Array) Failover(ctx context.Context, deadMachines ...int) (*FailoverReport, error) {
	// One span brackets the whole repair (drop + re-seed + flip): on a
	// sampled trace, the recovery cost shows as a single block whose
	// children are the device-to-device re-seed batches.
	ctx, sp := trace.StartSpan(ctx, "failover")
	rep, err := a.failover(ctx, deadMachines...)
	sp.End(err != nil)
	return rep, err
}

func (a *Array) failover(ctx context.Context, deadMachines ...int) (*FailoverReport, error) {
	dead := make(map[int]bool, len(deadMachines))
	for _, m := range deadMachines {
		dead[m] = true
	}
	deadDevs := make(map[int]bool)
	var deadList []int
	for d := 0; d < a.storage.Len(); d++ {
		if dead[a.storage.MachineOf(d)] {
			deadDevs[d] = true
			deadList = append(deadList, d)
		}
	}
	pm := a.Map()
	rep := &FailoverReport{DeadDevices: deadList}
	if len(deadDevs) == 0 {
		return rep, nil
	}
	need := pm.PagesPerDevice()

	// Spare capacity per surviving device: page slots past the map's
	// nominal requirement. One NumPages round per device; re-seed
	// allocation walks pages in linear order, so the layout is
	// deterministic given the same dead set.
	nextFree := make([]int, a.storage.Len())
	capacity := make([]int, a.storage.Len())
	for d := 0; d < a.storage.Len(); d++ {
		if deadDevs[d] {
			continue
		}
		n, err := a.storage.Device(d).NumPages(ctx)
		if err != nil {
			return rep, fmt.Errorf("core: failover: sizing device %d: %w", d, err)
		}
		capacity[d] = n
		nextFree[d] = need
	}

	type seed struct {
		dst, src PageAddress
	}
	var seeds []seed
	table := pm.editChains()
	for l, chain := range table {
		live := make([]PageAddress, 0, len(chain))
		for _, addr := range chain {
			if !deadDevs[addr.Device] {
				live = append(live, addr)
			}
		}
		if len(live) == 0 {
			rep.Lost = append(rep.Lost, l) // chain kept: keeps failing typed
			continue
		}
		if live[0] != chain[0] {
			rep.Promoted++
		}
		// Re-seed each lost replica onto the next device in the rotation
		// order that is alive, holds no copy of this page, and has a
		// spare slot.
		lost := len(chain) - len(live)
		for n := 0; n < lost; n++ {
			dst, ok := a.spareSlot(live, chain, deadDevs, nextFree, capacity)
			if !ok {
				rep.Degraded++
				break
			}
			seeds = append(seeds, seed{dst: dst, src: live[0]})
			live = append(live, dst)
			rep.Reseeded++
		}
		table[l] = live
	}

	// Ship the re-seeds device-to-device: each destination pulls whole
	// pages straight from the acting primary, batched per (dst, src)
	// device pair — the same lane CopyFrom uses.
	if len(seeds) > 0 {
		type pair struct{ dst, src int }
		groups := make(map[pair][]pagedev.PullRegion)
		var order []pair
		full := pagedev.SubBox{Dim: [3]int{a.p[0], a.p[1], a.p[2]}}
		for _, s := range seeds {
			p := pair{dst: s.dst.Device, src: s.src.Device}
			if _, ok := groups[p]; !ok {
				order = append(order, p)
			}
			groups[p] = append(groups[p], pagedev.PullRegion{
				Index:     s.dst.Index,
				Box:       full,
				PeerIndex: s.src.Index,
			})
		}
		var futs []*rmi.Future
		for _, p := range order {
			futs = append(futs, a.storage.Device(p.dst).PullSubBatchAsync(ctx,
				a.storage.Device(p.src).Ref(), groups[p]))
			if len(futs) >= a.window {
				if err := rmi.WaitAllReleased(ctx, futs); err != nil {
					return rep, fmt.Errorf("core: failover: re-seeding replicas: %w", err)
				}
				futs = futs[:0]
			}
		}
		if err := rmi.WaitAllReleased(ctx, futs); err != nil {
			return rep, fmt.Errorf("core: failover: re-seeding replicas: %w", err)
		}
	}

	sort.Ints(rep.Lost)
	a.setMap(pm.edited(a.storage.Len(), table, "+failover", nil))
	return rep, nil
}

// spareSlot picks the re-seed destination for one lost replica: walk
// the rotation order starting after the original chain, skipping dead
// devices, devices already holding the page, and devices out of spare
// slots.
func (a *Array) spareSlot(live, chain []PageAddress, deadDevs map[int]bool, nextFree, capacity []int) (PageAddress, bool) {
	holds := make(map[int]bool, len(live))
	for _, addr := range live {
		holds[addr.Device] = true
	}
	d0 := chain[0].Device
	D := a.storage.Len()
	for step := 1; step < D; step++ {
		cand := (d0 + step) % D
		if deadDevs[cand] || holds[cand] || nextFree[cand] >= capacity[cand] {
			continue
		}
		slot := PageAddress{Device: cand, Index: nextFree[cand]}
		nextFree[cand]++
		return slot, true
	}
	return PageAddress{}, false
}
