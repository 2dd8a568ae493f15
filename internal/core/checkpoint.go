package core

import (
	"context"
	"fmt"

	"oopp/internal/collection"
	"oopp/internal/pagedev"
	"oopp/internal/persist"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// This file completes the §5 picture: "applications must be able to
// access previously constructed data sets. In our view large data objects
// are described as collections of persistent processes."
//
// PublishArray registers a distributed array as a collection of
// persistent processes: each storage device is bound at a symbolic
// address derived from the array's address, and a small ArrayMeta
// process records the geometry and placement table. OpenArray reverses
// it — resolving the addresses (transparently reactivating passivated
// devices) and reassembling an Array client. DeactivateArray passivates
// the whole collection.

// ClassArrayMeta is the registered class of the array descriptor process.
const ClassArrayMeta = "core.ArrayMeta"

// arrayMeta is the array descriptor: geometry plus the live placement
// table, so a reopened array addresses exactly the slots its data lives
// in (after failover and migration too). It is the server-side
// descriptor object of a published array and the descriptor blob of a
// checkpoint; it is Persistable, so a published array can be fully
// passivated, descriptor included.
type arrayMeta struct {
	n, p [3]int // array dims, page dims
	pm   *PageMap
}

// describe snapshots arr's descriptor.
func describe(arr *Array) *arrayMeta {
	return &arrayMeta{n: arr.n, p: arr.p, pm: arr.Map()}
}

func (m *arrayMeta) encode(e *wire.Encoder) {
	for x := 0; x < 3; x++ {
		e.PutInt(m.n[x])
		e.PutInt(m.p[x])
	}
	m.pm.encode(e)
}

func (m *arrayMeta) decode(d *wire.Decoder) error {
	for x := 0; x < 3; x++ {
		m.n[x], m.p[x] = d.Int(), d.Int()
	}
	pm, err := decodePageMap(d)
	if err != nil {
		return err
	}
	for x, g := range [3]int{pm.p1, pm.p2, pm.p3} {
		if m.p[x] <= 0 || m.n[x] != g*m.p[x] {
			return fmt.Errorf("core: descriptor of a %v array with %v pages holds a %dx%dx%d page map", m.n, m.p, pm.p1, pm.p2, pm.p3)
		}
	}
	m.pm = pm
	return nil
}

// fetchMeta reads the descriptor held by the object at ref.
func fetchMeta(ctx context.Context, client *rmi.Client, ref rmi.Ref) (*arrayMeta, error) {
	d, err := client.Call(ctx, ref, "describe", nil)
	if err != nil {
		return nil, err
	}
	defer d.Release()
	meta := &arrayMeta{}
	if err := meta.decode(d); err != nil {
		return nil, err
	}
	return meta, nil
}

// open reassembles an Array client from a descriptor, attaching storage
// device i at resolve(i) — the one reopen path behind OpenArray
// (name-service addresses) and RecoverArray (checkpoint blobs).
func open(ctx context.Context, client *rmi.Client, meta *arrayMeta, resolve func(i int) (rmi.Ref, error)) (*Array, error) {
	devices := make([]*pagedev.ArrayDevice, meta.pm.Devices())
	for i := range devices {
		ref, err := resolve(i)
		if err != nil {
			return nil, err
		}
		devices[i] = pagedev.AttachArrayDevice(client, ref, meta.p[0], meta.p[1], meta.p[2])
	}
	return NewArray(ctx, NewBlockStorage(devices), meta.pm, meta.n[0], meta.n[1], meta.n[2], meta.p[0], meta.p[1], meta.p[2])
}

// SaveState implements persist.Persistable.
func (m *arrayMeta) SaveState(e *wire.Encoder) error {
	m.encode(e)
	return nil
}

// LoadState implements persist.Persistable.
func (m *arrayMeta) LoadState(env *rmi.Env, d *wire.Decoder) error {
	return m.decode(d)
}

func init() {
	rmi.Register(ClassArrayMeta, func(env *rmi.Env, args *wire.Decoder) (any, error) {
		m := &arrayMeta{}
		if err := m.decode(args); err != nil {
			return nil, err
		}
		return m, nil
	}).
		Method("describe", func(obj any, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			obj.(*arrayMeta).encode(reply)
			return nil
		})
	persist.RegisterRestorable(ClassArrayMeta, func() persist.Persistable { return &arrayMeta{} })
}

// metaAddr and deviceAddr derive the collection's member addresses.
func metaAddr(base persist.Address) persist.Address {
	return persist.Address{Namespace: base.Namespace, Path: base.Path + "/meta"}
}

func deviceAddr(base persist.Address, i int) persist.Address {
	return persist.Address{Namespace: base.Namespace, Path: fmt.Sprintf("%s/dev/%d", base.Path, i)}
}

// PublishArray registers arr as a persistent collection under base: a
// descriptor process (created on metaMachine) at base/meta and each
// storage device at base/dev/<i>.
func PublishArray(ctx context.Context, mgr *persist.Manager, client *rmi.Client, metaMachine int, base persist.Address, arr *Array) error {
	meta := describe(arr)
	metaRef, err := client.New(ctx, metaMachine, ClassArrayMeta, func(e *wire.Encoder) error {
		meta.encode(e)
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: creating array descriptor: %w", err)
	}
	if err := mgr.Bind(ctx, metaAddr(base), metaRef); err != nil {
		return err
	}
	// Bind the member devices concurrently: an owner-computes iteration
	// over the storage collection, each member contributing one name-
	// service bind for its own ref.
	_, err = collection.MapIndexed(ctx, arr.Storage().Collection(),
		func(ctx context.Context, m collection.Member) (struct{}, error) {
			return struct{}{}, mgr.Bind(ctx, deviceAddr(base, m.Index), m.Ref)
		})
	return err
}

// OpenArray reassembles a published array from its symbolic address,
// transparently reactivating any passivated member processes.
func OpenArray(ctx context.Context, mgr *persist.Manager, client *rmi.Client, base persist.Address) (*Array, error) {
	metaRef, err := mgr.Resolve(ctx, metaAddr(base))
	if err != nil {
		return nil, fmt.Errorf("core: resolving array descriptor: %w", err)
	}
	meta, err := fetchMeta(ctx, client, metaRef)
	if err != nil {
		return nil, err
	}
	return open(ctx, client, meta, func(i int) (rmi.Ref, error) {
		ref, err := mgr.Resolve(ctx, deviceAddr(base, i))
		if err != nil {
			return ref, fmt.Errorf("core: resolving device %d: %w", i, err)
		}
		return ref, nil
	})
}

// DeactivateArray passivates every member process of a published array
// (devices and descriptor). The storage devices must be persistable
// (they are, for all pagedev backings).
func DeactivateArray(ctx context.Context, mgr *persist.Manager, base persist.Address, devices int) error {
	for i := 0; i < devices; i++ {
		if err := mgr.Deactivate(ctx, deviceAddr(base, i)); err != nil {
			return fmt.Errorf("core: deactivating device %d: %w", i, err)
		}
	}
	return mgr.Deactivate(ctx, metaAddr(base))
}

// DestroyArray removes the published collection entirely: processes,
// stored state, and bindings.
func DestroyArray(ctx context.Context, mgr *persist.Manager, base persist.Address, devices int) error {
	var firstErr error
	for i := 0; i < devices; i++ {
		if err := mgr.Destroy(ctx, deviceAddr(base, i)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := mgr.Destroy(ctx, metaAddr(base)); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
