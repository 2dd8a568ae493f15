package core

// Cross-machine checkpoint and cold recovery — the k=1 complement of
// replica failover. Where Failover keeps a replicated array live through
// a machine loss (no data loss, no downtime), an unreplicated array has
// exactly one copy of each page; once the hosting machine is gone, so is
// the data. CheckpointArray bounds that loss: it ships every device's
// full representation (the SaveState blob passivation produces) to a
// persist store on another machine, where it survives the array's own
// machines. RecoverArray rebuilds the whole array from those blobs on
// the store's machine — writes since the checkpoint are lost, which is
// the k=1 deal.

import (
	"context"
	"fmt"

	"oopp/internal/persist"
	"oopp/internal/rmi"
	"oopp/internal/trace"
	"oopp/internal/wire"
)

// checkpointMetaName and checkpointDevName derive the store blob names of
// a checkpoint, mirroring the symbolic-address scheme of PublishArray.
func checkpointMetaName(name string) string { return name + "/meta" }

func checkpointDevName(name string, i int) string { return fmt.Sprintf("%s/dev/%d", name, i) }

// CheckpointArray saves a consistent snapshot of arr under name in store
// — a descriptor blob (geometry + placement table) plus one blob per
// storage device. Each device serializes itself inside its serial
// mailbox, so every page snapshot is atomic with respect to concurrent
// operations on that device; the devices stay live throughout. Run it at a quiescent
// point (after Barrier) if the snapshot must be consistent *across*
// devices. The store should live on a machine the array does not — a
// checkpoint on the array's own machine dies with it.
func CheckpointArray(ctx context.Context, arr *Array, store *persist.Store, name string) error {
	ctx, sp := trace.StartSpan(ctx, "checkpoint")
	err := checkpointArray(ctx, arr, store, name)
	sp.End(err != nil)
	return err
}

func checkpointArray(ctx context.Context, arr *Array, store *persist.Store, name string) error {
	e := wire.NewEncoder(64)
	describe(arr).encode(e)
	if err := store.Put(ctx, checkpointMetaName(name), ClassArrayMeta, e.Bytes()); err != nil {
		return fmt.Errorf("core: checkpointing descriptor: %w", err)
	}
	st := arr.Storage()
	window := arr.window
	if !arr.pipeline {
		window = 1
	}
	futs := make([]*rmi.Future, 0, window)
	flush := func() error {
		err := rmi.WaitAllReleased(ctx, futs)
		futs = futs[:0]
		return err
	}
	for i := 0; i < st.Len(); i++ {
		futs = append(futs, st.Device(i).CheckpointToAsync(ctx, store.Ref(), checkpointDevName(name, i)))
		if len(futs) >= window {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// RecoverArray rebuilds the array checkpointed under name from store,
// activating every device blob on the store's machine (cold recovery: the
// original machines are presumed gone, so the whole array lands on the
// survivor — degraded locality, full data). The blobs stay in the store,
// so recovery is repeatable.
func RecoverArray(ctx context.Context, client *rmi.Client, store *persist.Store, name string) (*Array, error) {
	ctx, sp := trace.StartSpan(ctx, "recover")
	arr, err := recoverArray(ctx, client, store, name)
	sp.End(err != nil)
	return arr, err
}

func recoverArray(ctx context.Context, client *rmi.Client, store *persist.Store, name string) (*Array, error) {
	metaRef, err := store.Activate(ctx, checkpointMetaName(name))
	if err != nil {
		return nil, fmt.Errorf("core: recovering descriptor: %w", err)
	}
	meta, err := fetchMeta(ctx, client, metaRef)
	_ = client.Delete(ctx, metaRef) // transient: only needed for describe
	if err != nil {
		return nil, err
	}
	return open(ctx, client, meta, func(i int) (rmi.Ref, error) {
		ref, err := store.Activate(ctx, checkpointDevName(name, i))
		if err != nil {
			return ref, fmt.Errorf("core: recovering device %d: %w", i, err)
		}
		return ref, nil
	})
}

// RemoveCheckpoint discards the blobs of a checkpoint (descriptor and
// devices devices).
func RemoveCheckpoint(ctx context.Context, store *persist.Store, name string, devices int) error {
	var firstErr error
	for i := 0; i < devices; i++ {
		if err := store.Remove(ctx, checkpointDevName(name, i)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := store.Remove(ctx, checkpointMetaName(name)); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
