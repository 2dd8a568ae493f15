package pagedev

// Client stubs and wire encoders for the kernel execution engine and
// the owner-computes methods. core.Array drives the batched methods
// through its storage collection with these encoders; the stub methods
// exist for direct device use and tests.

import (
	"context"
	"fmt"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// KernelRegion addresses one sub-box of one page for a batched kernel
// call.
type KernelRegion struct {
	Index int
	Box   SubBox
}

// BinaryRegion extends KernelRegion with the co-indexed second operand:
// the peer device process and page holding the same box of the other
// array.
type BinaryRegion struct {
	Index     int
	Box       SubBox
	Peer      rmi.Ref
	PeerIndex int
}

// PipePeer names the second operand of one binary stage of a fused
// pipeline for one region: the peer device process and the page index
// holding the co-indexed box.
type PipePeer struct {
	Ref   rmi.Ref
	Index int
}

// PipeRegion addresses one sub-box of one page for a fused pipeline
// call. Fold gates the pipeline's reduce stages for this region: under
// replication every replica executes the mutating stages, but exactly
// one live replica per page sets Fold and reports partials, so the
// client-side merge never double-counts. Peers carries one operand per
// binary stage of the pipeline, in stage order.
type PipeRegion struct {
	Index int
	Box   SubBox
	Fold  bool
	Peers []PipePeer
}

// PullRegion names a local region and the peer page it is pulled from
// (the box is shared: conformant arrays tile identically).
type PullRegion struct {
	Index     int
	Box       SubBox
	PeerIndex int
}

// PageCopy is one device-local page copy.
type PageCopy struct {
	From, To int
}

// EncodeApplyK packs an applyK/reduceK request: kernel name, parameter
// vector, and the region batch.
func EncodeApplyK(e *wire.Encoder, name string, params []float64, regions []KernelRegion) {
	e.PutString(name)
	e.PutFloat64s(params)
	e.PutInt(len(regions))
	for _, r := range regions {
		putSubBox(e, r.Index, r.Box)
	}
}

// EncodeApplyBinaryK packs an applyBinaryK/reduceBinaryK request.
func EncodeApplyBinaryK(e *wire.Encoder, name string, params []float64, regions []BinaryRegion) {
	e.PutString(name)
	e.PutFloat64s(params)
	e.PutInt(len(regions))
	for _, r := range regions {
		putSubBox(e, r.Index, r.Box)
		e.PutRef(r.Peer)
		e.PutInt(r.PeerIndex)
	}
}

// EncodeApplyPipelineK packs an applyPipelineK request: pipeline name,
// one parameter vector per stage, and the region batch with fold flags
// and per-binary-stage peer operands.
func EncodeApplyPipelineK(e *wire.Encoder, name string, params [][]float64, regions []PipeRegion) {
	e.PutString(name)
	e.PutInt(len(params))
	for _, p := range params {
		e.PutFloat64s(p)
	}
	e.PutInt(len(regions))
	for _, r := range regions {
		putSubBox(e, r.Index, r.Box)
		e.PutBool(r.Fold)
		for _, pe := range r.Peers {
			e.PutRef(pe.Ref)
			e.PutInt(pe.Index)
		}
	}
}

// DecodePipelinePartials reads an applyPipelineK reply: the element
// count touched, then one ReducePartial per reduce stage in stage
// order.
func DecodePipelinePartials(d *wire.Decoder, reduces int) (touched int64, partials []ReducePartial, err error) {
	touched = d.Varint()
	partials = make([]ReducePartial, reduces)
	for i := range partials {
		partials[i] = ReducePartial{N: d.Varint(), Acc: d.Float64s()}
	}
	return touched, partials, d.Err()
}

// EncodeKernelAll packs an applyAllK/reduceAllK request.
func EncodeKernelAll(e *wire.Encoder, name string, params []float64) {
	e.PutString(name)
	e.PutFloat64s(params)
}

// EncodePullSubBatch packs a pullSubBatch request: one source device,
// many (local region ← peer page) transfers.
func EncodePullSubBatch(e *wire.Encoder, peer rmi.Ref, regions []PullRegion) {
	e.PutRef(peer)
	e.PutInt(len(regions))
	for _, r := range regions {
		putSubBox(e, r.Index, r.Box)
		e.PutInt(r.PeerIndex)
	}
}

// ReducePartial is one device's contribution to a kernel reduction:
// how many elements it folded and the accumulator it folded them into.
// A partial with N == 0 carries only the reduction identity and must
// not be merged (this is the structural fix for the empty-page ±Inf
// poisoning of min/max reductions).
type ReducePartial struct {
	N   int64
	Acc []float64
}

// DecodeReducePartial reads a reduceK/reduceBinaryK/reduceAllK reply.
func DecodeReducePartial(d *wire.Decoder) (ReducePartial, error) {
	p := ReducePartial{N: d.Varint(), Acc: d.Float64s()}
	return p, d.Err()
}

// ApplyK runs a registered map kernel over the listed regions of this
// device, in place, with one remote call. Returns the element count
// touched.
func (d *ArrayDevice) ApplyK(ctx context.Context, name string, params []float64, regions []KernelRegion) (int64, error) {
	dec, err := d.client.Call(ctx, d.ref, "applyK", func(e *wire.Encoder) error {
		EncodeApplyK(e, name, params, regions)
		return nil
	})
	if err != nil {
		return 0, err
	}
	defer dec.Release()
	n := dec.Varint()
	return n, dec.Err()
}

// ReduceK folds a registered reduction kernel over the listed regions
// device-side; only the (count, accumulator) partial returns.
func (d *ArrayDevice) ReduceK(ctx context.Context, name string, params []float64, regions []KernelRegion) (ReducePartial, error) {
	dec, err := d.client.Call(ctx, d.ref, "reduceK", func(e *wire.Encoder) error {
		EncodeApplyK(e, name, params, regions)
		return nil
	})
	if err != nil {
		return ReducePartial{}, err
	}
	defer dec.Release()
	return DecodeReducePartial(dec)
}

// ApplyBinaryK runs a registered two-operand kernel over the listed
// regions, each second operand pulled device-to-device from its peer.
func (d *ArrayDevice) ApplyBinaryK(ctx context.Context, name string, params []float64, regions []BinaryRegion) (int64, error) {
	dec, err := d.client.Call(ctx, d.ref, "applyBinaryK", func(e *wire.Encoder) error {
		EncodeApplyBinaryK(e, name, params, regions)
		return nil
	})
	if err != nil {
		return 0, err
	}
	defer dec.Release()
	n := dec.Varint()
	return n, dec.Err()
}

// ReduceBinaryK folds a registered two-operand reduction kernel over
// the listed region pairs device-side.
func (d *ArrayDevice) ReduceBinaryK(ctx context.Context, name string, params []float64, regions []BinaryRegion) (ReducePartial, error) {
	dec, err := d.client.Call(ctx, d.ref, "reduceBinaryK", func(e *wire.Encoder) error {
		EncodeApplyBinaryK(e, name, params, regions)
		return nil
	})
	if err != nil {
		return ReducePartial{}, err
	}
	defer dec.Release()
	return DecodeReducePartial(dec)
}

// ApplyPipelineK runs a registered fused pipeline over the listed
// regions with one remote call: each region's page is loaded once,
// every stage applied in order, and stored once. reduces is the
// pipeline's reduce-stage count (it sizes the reply decode).
func (d *ArrayDevice) ApplyPipelineK(ctx context.Context, name string, params [][]float64, regions []PipeRegion, reduces int) (int64, []ReducePartial, error) {
	dec, err := d.client.Call(ctx, d.ref, "applyPipelineK", func(e *wire.Encoder) error {
		EncodeApplyPipelineK(e, name, params, regions)
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	defer dec.Release()
	return DecodePipelinePartials(dec, reduces)
}

// PullSubBatchAsync begins an owner-computes transfer: this device
// overwrites each listed local region with the co-indexed region pulled
// from the peer device, device-to-device.
func (d *ArrayDevice) PullSubBatchAsync(ctx context.Context, peer rmi.Ref, regions []PullRegion) *rmi.Future {
	return d.client.CallAsync(ctx, d.ref, "pullSubBatch", func(e *wire.Encoder) error {
		EncodePullSubBatch(e, peer, regions)
		return nil
	})
}

// CopyPagesAsync begins a batch of device-local page copies.
func (d *ArrayDevice) CopyPagesAsync(ctx context.Context, pairs []PageCopy) *rmi.Future {
	return d.client.CallAsync(ctx, d.ref, "copyPages", func(e *wire.Encoder) error {
		e.PutInt(len(pairs))
		for _, p := range pairs {
			e.PutInt(p.From)
			e.PutInt(p.To)
		}
		return nil
	})
}

// JacobiHalo names the neighbour plane of an owner-computes sweep: the
// device process holding it and its page indices in (p2, p3) row-major
// order.
type JacobiHalo struct {
	Ref   rmi.Ref
	Pages []int
}

// JacobiPlaneArgs describes one page-plane sweep (see the jacobiPlane
// method): bank offsets, the slab's global position, the page grid, the
// plane's page indices, and the neighbour planes (nil at the array
// boundary). SyncHalo forces the fetch-then-sweep reference schedule;
// the default (false) posts halo pulls asynchronously and sweeps the
// interior while they are in flight — bitwise-equal by construction.
type JacobiPlaneArgs struct {
	SrcOff, DstOff int
	QBase          int
	N1, N2, N3     int
	P2, P3         int
	SyncHalo       bool
	Pages          []int
	Lo, Hi         *JacobiHalo
}

// JacobiPlaneAsync begins one owner-computes plane sweep; decode the
// plane residual with DecodeSum.
func (d *ArrayDevice) JacobiPlaneAsync(ctx context.Context, a JacobiPlaneArgs) *rmi.Future {
	return d.client.CallAsync(ctx, d.ref, "jacobiPlane", func(e *wire.Encoder) error {
		if len(a.Pages) != a.P2*a.P3 {
			return fmt.Errorf("pagedev: jacobiPlane: %d pages for a %dx%d grid", len(a.Pages), a.P2, a.P3)
		}
		e.PutInt(a.SrcOff)
		e.PutInt(a.DstOff)
		e.PutInt(a.QBase)
		e.PutInt(a.N1)
		e.PutInt(a.N2)
		e.PutInt(a.N3)
		e.PutInt(a.P2)
		e.PutInt(a.P3)
		e.PutBool(a.SyncHalo)
		for _, p := range a.Pages {
			e.PutInt(p)
		}
		putHalo := func(h *JacobiHalo) error {
			e.PutBool(h != nil)
			if h == nil {
				return nil
			}
			if len(h.Pages) != a.P2*a.P3 {
				return fmt.Errorf("pagedev: jacobiPlane halo: %d pages for a %dx%d grid", len(h.Pages), a.P2, a.P3)
			}
			e.PutRef(h.Ref)
			for _, p := range h.Pages {
				e.PutInt(p)
			}
			return nil
		}
		if err := putHalo(a.Lo); err != nil {
			return err
		}
		return putHalo(a.Hi)
	})
}
