package main

// The array-rw workload: core.Array orchestration. Four machines with
// two devices each hold a round-robin 128³ float64 array replicated
// k=2, in 1 MiB pages. Two closed-loop clients, each confined to its own
// half of the array, run a seeded 70/30 mix of reads and writes on
// sub-boxes from single elements to several pages, so frames run from a
// few KiB to a page. Region splitting, copyRegion, replica chains and
// the primary-ack write fan-out dominate, with large-frame wire and
// transport copies. Writes run beside reads so that a change which
// speeds one at the other's cost shows.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

const (
	rwN                       = 128
	rwPage1, rwPage2, rwPage3 = 32, 64, 64
	rwMachines, rwDevicesPerM = 4, 2
	rwReplicas                = 2
	rwClients                 = 2
	kindRead, kindWrite       = 0, 1
)

type arrayRW struct {
	inputs  [][]rwOp
	pool    []float64
	init    []float64
	shadow  []float64 // expected array contents; each client owns its half
	bufs    [][]float64
	cl      *cluster.Cluster
	storage *core.BlockStorage
	rm      *core.ReplicatedMap
	arr     *core.Array
}

// rwHalf is the part of the array client c reads and writes.
func rwHalf(c int) core.Domain {
	h := rwN / rwClients
	return core.NewDomain(c*h, (c+1)*h, 0, rwN, 0, rwN)
}

func newArrayRW(seed int64) workload {
	a := &arrayRW{pool: rwPool(seed), init: stencilField(seed, "array-rw", rwN)}
	a.shadow = make([]float64, len(a.init))
	for c := 0; c < rwClients; c++ {
		a.inputs = append(a.inputs, rwInputs(seed, c, rwHalf(c)))
		a.bufs = append(a.bufs, make([]float64, rwMaxBox))
	}
	return a
}

func (a *arrayRW) callers() int          { return rwClients }
func (a *arrayRW) tailLimit() float64    { return 0.95 }
func (a *arrayRW) window() time.Duration { return time.Second }

func (a *arrayRW) full() core.Domain { return core.Box(rwN, rwN, rwN) }

func (a *arrayRW) setUp(ctx context.Context, log *spanLog, parent uint64) (setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	cl, err := cluster.New(cluster.Config{Machines: rwMachines, Transport: transport.TCP{}})
	t1 := time.Now()
	st.cluster = t1.Sub(t0)
	log.record(0, "cluster.start", parent, t0, t1)
	if err != nil {
		return st, err
	}
	a.cl = cl
	var machines []int
	for m := 0; m < rwMachines; m++ {
		for d := 0; d < rwDevicesPerM; d++ {
			machines = append(machines, m)
		}
	}
	base, err := core.NewRoundRobinMap(rwN/rwPage1, rwN/rwPage2, rwN/rwPage3, len(machines))
	if err != nil {
		return st, err
	}
	if a.rm, err = core.NewReplicatedMap(base, rwReplicas); err != nil {
		return st, err
	}
	if a.storage, err = core.CreateBlockStorage(ctx, cl.Client(), machines, "rw", a.rm.PagesPerDevice(), rwPage1, rwPage2, rwPage3, pagedev.DiskPrivate); err != nil {
		return st, err
	}
	if a.arr, err = core.NewArray(ctx, a.storage, a.rm, rwN, rwN, rwN, rwPage1, rwPage2, rwPage3); err != nil {
		return st, err
	}
	t2 := time.Now()
	st.alloc = t2.Sub(t1)
	log.record(0, "core.alloc", parent, t1, t2)
	if err := a.arr.Write(ctx, a.init, a.full()); err != nil {
		return st, fmt.Errorf("seed array: %w", err)
	}
	t3 := time.Now()
	st.seed = t3.Sub(t2)
	log.record(0, "core.seed", parent, t2, t3)
	copy(a.shadow, a.init)
	return st, nil
}

func (a *arrayRW) tearDown() {
	if a.cl != nil {
		_ = a.cl.Shutdown() // in-memory cluster: nothing survives it
		a.cl = nil
	}
}

// boxCopy copies between a dom-shaped buffer and the full-array shadow:
// into the shadow when toShadow, out of it otherwise.
func boxCopy(shadow, buf []float64, dom core.Domain, toShadow bool) {
	n1, n2, n3 := dom.Dims()
	for i := 0; i < n1; i++ {
		for j := 0; j < n2; j++ {
			s := ((dom.Lo[0]+i)*rwN+dom.Lo[1]+j)*rwN + dom.Lo[2]
			b := (i*n2 + j) * n3
			if toShadow {
				copy(shadow[s:s+n3], buf[b:b+n3])
			} else {
				copy(buf[b:b+n3], shadow[s:s+n3])
			}
		}
	}
}

// boxEqual reports whether buf holds exactly the shadow's values of dom.
func boxEqual(shadow, buf []float64, dom core.Domain) bool {
	n1, n2, n3 := dom.Dims()
	for i := 0; i < n1; i++ {
		for j := 0; j < n2; j++ {
			s := ((dom.Lo[0]+i)*rwN+dom.Lo[1]+j)*rwN + dom.Lo[2]
			b := (i*n2 + j) * n3
			for k := 0; k < n3; k++ {
				if buf[b+k] != shadow[s+k] {
					return false
				}
			}
		}
	}
	return true
}

func (a *arrayRW) op(ctx context.Context, caller, i int, log *spanLog, parent uint64) (sample, error) {
	in := a.inputs[caller][i%rwRing]
	size := in.dom.Size()
	if in.write {
		vals := a.writeValues(caller, i)
		start := time.Now()
		err := a.arr.Write(ctx, vals, in.dom)
		end := time.Now()
		log.record(0, "core.write", parent, start, end)
		smp := sample{lat: end.Sub(start), kind: kindWrite, bytes: size * 8}
		if err != nil {
			return smp, fmt.Errorf("write %v: %w", in.dom, err)
		}
		boxCopy(a.shadow, vals, in.dom, true)
		return smp, nil
	}
	buf := a.bufs[caller][:size]
	start := time.Now()
	err := a.arr.Read(ctx, buf, in.dom)
	end := time.Now()
	log.record(0, "core.read", parent, start, end)
	smp := sample{lat: end.Sub(start), kind: kindRead, bytes: size * 8}
	if err != nil {
		return smp, fmt.Errorf("read %v: %w", in.dom, err)
	}
	if !boxEqual(a.shadow, buf, in.dom) {
		return smp, fmt.Errorf("read %v differs from the values written: %w", in.dom, errWrong)
	}
	return smp, nil
}

// writeValues returns the values the i-th operation of caller's stream
// writes. Each lap of the stream shifts the window into the value pool,
// so that a write never stores what it stored a lap earlier and a lost
// write, or a read of a stale replica, cannot pass for a current one.
func (a *arrayRW) writeValues(caller, i int) []float64 {
	in := a.inputs[caller][i%rwRing]
	size := in.dom.Size()
	off := (in.off + i/rwRing*rwLapShift) % (rwPoolLen - size + 1)
	return a.pool[off : off+size]
}

func (a *arrayRW) endToEnd(r *report, p *phaseResult) {
	st := p.rec.stats(a.tailLimit())
	reads, writes := p.rec.kinds[kindRead], p.rec.kinds[kindWrite]
	r.addE2E("rw_MBps", "MB/s", float64(p.rec.bytes)/p.rec.last.Seconds()/1e6, fmt.Sprintf("payload of %d ops", st.n))
	r.addE2E("read_p50_ms", "ms", reads.quantile(0.5)*1e3, fmt.Sprintf("%d reads", reads.n))
	r.addE2E("write_p50_ms", "ms", writes.quantile(0.5)*1e3, fmt.Sprintf("%d writes", writes.n))
	q := tailQuantile(int(st.n), 1)
	r.addE2E("rw_tail_ms", "ms", p.rec.all.quantile(q)*1e3, fmt.Sprintf("p%s of %d ops", pctName(q), st.n))
}

// regionsOf counts the pages dom overlaps.
func regionsOf(dom core.Domain) int {
	pages := [3]int{rwPage1, rwPage2, rwPage3}
	n := 1
	for x := 0; x < 3; x++ {
		n *= (dom.Hi[x]-1)/pages[x] - dom.Lo[x]/pages[x] + 1
	}
	return n
}

// rwCountOps is how many operations from the start of each client's
// stream the count pass replays.
const rwCountOps = 256

// countPass replays the first rwCountOps operations of every client's
// stream, reads first and writes second, so that the bytes each kind
// moves can be told apart. The counts repeat exactly for a seed.
func (a *arrayRW) countPass(ctx context.Context, r *report, write bool) (ops int, payload int64, d rwDelta) {
	c0 := counters()
	var wg sync.WaitGroup
	errs := make([][]error, rwClients)
	for c := 0; c < rwClients; c++ {
		for i := 0; i < rwCountOps; i++ {
			in := a.inputs[c][i]
			if in.write == write {
				ops++
				payload += int64(in.dom.Size()) * 8
				d.regions += int64(regionsOf(in.dom))
			}
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rwCountOps; i++ {
				if a.inputs[c][i].write != write {
					continue
				}
				_, err := a.op(ctx, c, i, nil, 0)
				errs[c] = append(errs[c], err)
			}
		}(c)
	}
	wg.Wait()
	for _, es := range errs {
		r.countOps(len(es), es)
	}
	d.counts = counters().Sub(c0)
	return ops, payload, d
}

type rwDelta struct {
	counts  snapshot
	regions int64
}

func (a *arrayRW) layers(ctx context.Context, r *report, traced *phaseResult, spans *spanSet) error {
	r.layer("core.read_ms", median(spans.durations("core.read"))*1e3, "Array.Read, p50")
	r.layer("core.write_ms", median(spans.durations("core.write"))*1e3, "Array.Write, p50")

	client := a.cl.Client()
	if err := settle(ctx, a.storage); err != nil {
		return err
	}
	before, err := methodStats(ctx, client, rwMachines)
	if err != nil {
		return err
	}
	var depth [rmi.NumPriorities]float64
	probes := 0
	smp := startSampler(func() {
		for m := 0; m < rwMachines; m++ {
			q := a.cl.Machine(m).Server().QueueDepths()
			for p := range q {
				depth[p] += float64(q[p])
			}
		}
		probes++
	})
	nr, readBytes, rd := a.countPass(ctx, r, false)
	nw, writeBytes, wd := a.countPass(ctx, r, true)
	smp.stop()
	if err := settle(ctx, a.storage); err != nil {
		return err
	}
	after, err := methodStats(ctx, client, rwMachines)
	if err != nil {
		return err
	}
	ops := float64(nr + nw)
	sum := func(f func(s snapshot) int64) float64 { return float64(f(rd.counts) + f(wd.counts)) }
	note := fmt.Sprintf("count pass of %d reads and %d writes", nr, nw)
	r.layer("core.regions_per_op", float64(rd.regions+wd.regions)/ops, note)
	r.layer("core.read_amplification", float64(rd.counts.BytesSent)/float64(readBytes), "transport bytes of reads ÷ payload read")
	r.layer("core.write_fanout", float64(wd.counts.BytesSent)/float64(writeBytes), "transport bytes of writes ÷ payload written")
	r.layer("transport.frames_per_op", sum(func(s snapshot) int64 { return s.MessagesSent })/ops, note)
	r.layer("transport.bytes_per_op", sum(func(s snapshot) int64 { return s.BytesSent })/ops, note)
	r.layer("disk.ops_per_op", sum(func(s snapshot) int64 { return s.DiskReads + s.DiskWrites })/ops, note)
	r.layer("disk.bytes_per_op", sum(func(s snapshot) int64 { return s.DiskBytesRead + s.DiskBytesWrit })/ops, note)
	r.layer("rmi.admitted", sum(func(s snapshot) int64 { return s.ReqAdmitted }), note)
	r.layer("rmi.shed", sum(func(s snapshot) int64 { return s.ReqShed }), note)
	r.layer("rmi.expired", sum(func(s snapshot) int64 { return s.ReqExpired }), note)
	r.layer("rmi.orphaned", sum(func(s snapshot) int64 { return s.RespOrphaned }), note)
	if probes > 0 {
		r.layer("rmi.queue_depth_mean.high", depth[rmi.PrioHigh]/float64(probes), "sampled, all machines summed")
		r.layer("rmi.queue_depth_mean.normal", depth[rmi.PrioNormal]/float64(probes), "sampled, all machines summed")
		r.layer("rmi.queue_depth_mean.bulk", depth[rmi.PrioBulk]/float64(probes), "sampled, all machines summed")
	}
	dev := pagedev.ClassArrayPageDevice + "."
	r.layer("pagedev.read_us", methodDelta(after, before, dev+"readArray").p50us, "server readArray, p50, count pass")
	r.layer("pagedev.write_us", methodDelta(after, before, dev+"writeArray", dev+"writeSub").p50us, "server writeArray and writeSub, p50, count pass")
	r.layer("core.degraded_writes", float64(a.arr.DegradedWrites()), "")

	var bar []float64
	b0 := counters()
	const barriers = 100
	for i := 0; i < barriers; i++ {
		start := time.Now()
		if err := a.storage.Barrier(ctx); err != nil {
			return fmt.Errorf("barrier: %w", err)
		}
		bar = append(bar, time.Since(start).Seconds()*1e6)
	}
	r.layer("collection.barrier_us", median(bar), fmt.Sprintf("BlockStorage.Barrier over %d devices", a.storage.Len()))
	r.layer("collection.rmis_per_collective", float64(counters().Sub(b0).CallsIssued)/barriers, "per Barrier")

	// The page read reply: one whole page of float64.
	page := a.init[:rwPage1*rwPage2*rwPage3]
	dst := make([]float64, len(page))
	encNs, decNs, err := wireCost(20,
		func(e *wire.Encoder) { e.PutFloat64s(page) },
		func(d *wire.Decoder) error { d.Float64sInto(dst); return d.Err() })
	if err != nil {
		return err
	}
	frame := len(page)*8 + 4
	r.layer("wire.encode_ns", encNs, fmt.Sprintf("page reply frame, %d B", frame))
	r.layer("wire.decode_ns", decNs, fmt.Sprintf("page reply frame, %d B", frame))
	r.layer("bufpool.get_put_ns", bufpoolCost(20000, []int{96, 8 << 10, frame}), "control, sub-box and page frame classes")
	rtt, err := tcpRTT(frame, 300)
	if err != nil {
		return err
	}
	r.layer("transport.rtt_us", rtt, fmt.Sprintf("%d B frames, p50", frame))
	return nil
}

// verify reads every replica of every page straight from its device and
// compares it bitwise with the values written.
func (a *arrayRW) verify(ctx context.Context) (int64, error) {
	var wrong int64
	page := pagedev.NewArrayPage(rwPage1, rwPage2, rwPage3)
	for p1 := 0; p1 < rwN/rwPage1; p1++ {
		for p2 := 0; p2 < rwN/rwPage2; p2++ {
			for p3 := 0; p3 < rwN/rwPage3; p3++ {
				dom := core.NewDomain(p1*rwPage1, (p1+1)*rwPage1, p2*rwPage2, (p2+1)*rwPage2, p3*rwPage3, (p3+1)*rwPage3)
				for _, addr := range a.rm.LocateAll(p1, p2, p3) {
					if err := a.storage.Device(addr.Device).ReadPage(ctx, page, addr.Index); err != nil {
						return wrong, fmt.Errorf("read replica %v: %w", addr, err)
					}
					if !boxEqual(a.shadow, page.Data, dom) {
						wrong++
					}
				}
			}
		}
	}
	return wrong, nil
}
