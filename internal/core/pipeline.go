package core

// The fused-pipeline collective: ApplyPipeline carries a whole
// registered stage chain to the devices in ONE windowed fan-out — one
// RMI per involved device per chain, against one per device per STAGE
// for the equivalent sequence of Apply/ApplyBinary/Reduce calls — and
// each device walks every page region through all stages in a single
// load/store pass. Stage parameters travel out, fixed-width reduce
// partials travel back; no element data touches the client.

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

// StageResult is the client-side outcome of one reduce stage of a
// fused pipeline: the merged accumulator and the number of elements
// folded into it. Stage is the stage's index in the pipeline chain and
// Name its reduce kernel. A result with N == 0 (empty domain) carries
// the kernel's identity accumulator, exactly like Array.Reduce.
type StageResult struct {
	Stage int
	Name  string
	Acc   []float64
	N     int64
}

// pipeBatches groups the fused batch by owning device, mirroring
// batches/binaryBatches. Mutating pipelines fan every region to the
// page's whole replica chain (the deterministic stage chain keeps
// replica banks bitwise identical), but exactly ONE live replica per
// page gets Fold=true — it alone folds the reduce stages and reports
// partials, so the client-side merge never double-counts a page.
// Read-only (pure-reduce) pipelines visit one live replica per page,
// folding there; exclude filters devices on the read-only retry path.
// Each binary stage's operand page is read from the operand array's
// first live replica, like binaryBatches.
func (a *Array) pipeBatches(operands []*Array, regs []region, mutates bool, exclude map[int]bool) (devs []int, byDev map[int][]pagedev.PipeRegion, err error) {
	byDev = make(map[int][]pagedev.PipeRegion)
	add := func(addr PageAddress, pr pagedev.PipeRegion) {
		pr.Index = addr.Index
		if _, ok := byDev[addr.Device]; !ok {
			devs = append(devs, addr.Device)
		}
		byDev[addr.Device] = append(byDev[addr.Device], pr)
	}
	for _, r := range regs {
		var peers []pagedev.PipePeer
		if len(operands) > 0 {
			peers = make([]pagedev.PipePeer, len(operands))
			for i, b := range operands {
				bChain := b.Map().LocateAll(r.box.Lo[0]/a.p[0], r.box.Lo[1]/a.p[1], r.box.Lo[2]/a.p[2])
				bAddr, ok := b.pickLive(bChain, nil)
				if !ok {
					return nil, nil, fmt.Errorf("core: operand page %v: no replica left: %w", bChain[0], rmi.ErrMachineDown)
				}
				peers[i] = pagedev.PipePeer{Ref: b.storage.Device(bAddr.Device).Ref(), Index: bAddr.Index}
			}
		}
		pr := pagedev.PipeRegion{Box: subBoxFor(r), Peers: peers}
		if mutates {
			foldAddr, ok := a.pickLive(r.chain, nil)
			if !ok {
				return nil, nil, fmt.Errorf("core: page %v: no replica left: %w", r.chain[0], rmi.ErrMachineDown)
			}
			for _, addr := range r.chain {
				p := pr
				p.Fold = addr == foldAddr
				add(addr, p)
			}
			continue
		}
		addr, ok := a.pickLive(r.chain, exclude)
		if !ok {
			return nil, nil, fmt.Errorf("core: page %v: no replica left outside failed machines: %w", r.chain[0], rmi.ErrMachineDown)
		}
		pr.Fold = true
		add(addr, pr)
	}
	return devs, byDev, nil
}

// relocatePipeBatches is relocateKernelBatches for fused batches: the
// refused regions replay at the copies' post-flip addresses, fold flags
// and peer operands riding along unchanged (a fenced device folded
// nothing — refusal is all-or-nothing — so replaying the identical
// regions keeps both the mutations and the partials exactly-once).
func relocatePipeBatches(pm *PageMap, failed []int, byDev map[int][]pagedev.PipeRegion) ([]int, map[int][]pagedev.PipeRegion) {
	nb := make(map[int][]pagedev.PipeRegion)
	var devs []int
	for _, dev := range failed {
		for _, pr := range byDev[dev] {
			na := relocatedAddr(pm, PageAddress{Device: dev, Index: pr.Index})
			if _, ok := nb[na.Device]; !ok {
				devs = append(devs, na.Device)
			}
			pr.Index = na.Index
			nb[na.Device] = append(nb[na.Device], pr)
		}
	}
	return devs, nb
}

// ApplyPipeline runs the registered pipeline name over dom as one fused
// pass: one RMI per involved device carries the whole stage chain, and
// each device loads every page region once, applies the stages in
// order, and stores once. operands supplies the second operand array of
// each binary stage, in stage order (empty for pipelines without binary
// stages); params supplies one parameter vector per stage. It returns
// one StageResult per reduce stage, in stage order, merged across
// devices in device order (deterministic for associative kernels).
//
// Fusion changes the cost, not the semantics: the results are
// bitwise-identical to issuing the stages as individual
// Apply/ApplyBinary/Reduce calls, because each device applies the same
// stage arithmetic to the same rows in the same order — the chain just
// stays in the page buffer between stages. Like those calls, batches
// are not transactional across devices, fenced batches park and replay
// at the copies' post-flip addresses, and under a replicated map
// mutating stages fan to every replica while each page's reduce stages
// fold on exactly one.
//
// Failure tolerance depends on the chain's shape: a pure-map pipeline
// degrades like Apply (machine-down members are absorbed while every
// page keeps a live replica); a pure-reduce pipeline retries on the
// surviving replicas like Reduce; a pipeline that both mutates and
// reduces returns the failure — its mutations cannot be safely
// re-executed to recover the lost partials.
func (a *Array) ApplyPipeline(ctx context.Context, dom Domain, name string, operands []*Array, params ...[]float64) ([]StageResult, error) {
	ctx, sp := trace.StartSpan(ctx, "kernel.pipeline")
	res, err := a.applyPipeline(ctx, dom, name, operands, params...)
	sp.End(err != nil)
	return res, err
}

func (a *Array) applyPipeline(ctx context.Context, dom Domain, name string, operands []*Array, params ...[]float64) ([]StageResult, error) {
	p, stages, err := kernel.LookupPipeline(name, params)
	if err != nil {
		return nil, err
	}
	if len(operands) != p.Binaries() {
		return nil, fmt.Errorf("core: pipeline %q has %d binary stage(s), got %d operand array(s)", name, p.Binaries(), len(operands))
	}
	for _, b := range operands {
		if err := a.conformant(b); err != nil {
			return nil, err
		}
	}
	if err := a.checkDomain(dom); err != nil {
		return nil, err
	}
	nred := p.Reduces()
	var merges []func(acc, other []float64)
	for _, st := range stages {
		if st.Kind == kernel.StageReduce {
			merges = append(merges, st.Red.Merge)
		}
	}
	// results materializes the per-stage outcomes; an untouched stage
	// (N == 0) reports its identity accumulator, never a merged one.
	results := func(totals []pagedev.ReducePartial) []StageResult {
		out := make([]StageResult, 0, nred)
		ri := 0
		for si, st := range stages {
			if st.Kind != kernel.StageReduce {
				continue
			}
			res := StageResult{Stage: si, Name: st.Name}
			if totals == nil || totals[ri].N == 0 {
				res.Acc = st.Red.NewAcc(params[si])
			} else {
				res.Acc, res.N = totals[ri].Acc, totals[ri].N
			}
			out = append(out, res)
			ri++
		}
		return out
	}
	// run fans one round of batches out and merges each member's
	// partials into totals in member order (CallAll serializes collect).
	run := func(devs []int, byDev map[int][]pagedev.PipeRegion, totals []pagedev.ReducePartial) error {
		return a.kernelView(devs).CallAll(ctx, "applyPipelineK",
			func(m collection.Member, e *wire.Encoder) error {
				pagedev.EncodeApplyPipelineK(e, name, params, byDev[m.Index])
				return nil
			},
			func(m collection.Member, d *wire.Decoder) error {
				_, parts, derr := pagedev.DecodePipelinePartials(d, nred)
				if derr != nil {
					return derr
				}
				for i := range totals {
					totals[i] = mergePartials(merges[i])(totals[i], parts[i])
				}
				return nil
			})
	}

	if p.Mutates() {
		pm := a.Map()
		regs := a.regionsOf(pm, dom)
		if len(regs) == 0 {
			return results(nil), nil
		}
		devs, byDev, berr := a.pipeBatches(operands, regs, true, nil)
		if berr != nil {
			return nil, berr
		}
		// totals persists across fence-replay rounds: members that
		// succeeded keep their partials, refused members folded nothing.
		totals := make([]pagedev.ReducePartial, nred)
		err = run(devs, byDev, totals)
		for attempt := 0; err != nil && allFenced(err) && attempt < maxFenceRetries; attempt++ {
			newPM, werr := a.waitMapFlip(ctx, pm)
			if werr != nil {
				return nil, err
			}
			pm = newPM
			devs, byDev = relocatePipeBatches(pm, collection.Failed(err), byDev)
			if len(devs) == 0 {
				err = nil
				break
			}
			err = run(devs, byDev, totals)
		}
		if err != nil {
			if nred > 0 {
				return nil, err
			}
			down := make(map[int]bool)
			for _, dev := range collection.Failed(err) {
				down[dev] = true
			}
			if cerr := a.coverDown(err, regs, down); cerr != nil {
				return nil, cerr
			}
		}
		return results(totals), nil
	}

	// Pure-reduce pipeline: read-only, so a machine-down failure retries
	// the whole fold against the surviving replicas, like Reduce.
	regs := a.regions(dom)
	if len(regs) == 0 {
		return results(nil), nil
	}
	replicas := a.Map().Replicas()
	exclude := make(map[int]bool)
	for attempt := 0; ; attempt++ {
		devs, byDev, berr := a.pipeBatches(operands, regs, false, exclude)
		if berr != nil {
			return nil, berr
		}
		totals := make([]pagedev.ReducePartial, nred)
		if err := run(devs, byDev, totals); err != nil {
			if attempt+1 < replicas && allMachineDown(err) {
				for _, dev := range collection.Failed(err) {
					exclude[dev] = true
				}
				continue
			}
			return nil, err
		}
		return results(totals), nil
	}
}
