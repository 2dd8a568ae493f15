package main

// The stencil workload: device kernels. Four machines hold one device
// each of a striped 128³ float64 array with a second page bank, plus a
// second array for a fused chain. Each step is one owner-computes
// JacobiOwner call of two sweeps, one fused ApplyPipeline (axpy from the
// iterate into the second array, then sumsq) and one Dot. Device page
// passes and kernels dominate and the traffic is a few mid-sized halo
// RMIs, so an RMI-layer gain should barely show here and a kernel gain
// should show most. The 16 MiB arrays exceed the L2 caches but fit the
// shared L3 of the 2-vCPU Xeon the bounds were set on (2 MiB L2 per
// core, 105 MiB L3), so bytes are reported as computed, not as
// bandwidth.

import (
	"context"
	"fmt"
	"math"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/kernel"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// stencilPipeline is the fused chain: v += alpha·u, then Σv².
const stencilPipeline = "perfbench.axpy_sumsq"

func init() {
	kernel.RegisterPipeline(stencilPipeline, kernel.Pipeline{Stages: []kernel.Stage{
		kernel.BinaryStage(kernel.Axpy),
		kernel.ReduceStage(kernel.SumSq),
	}})
}

// stencilGeom is the stencil's problem size: an N³ array of n³ pages on
// one device per machine, swept sweeps times per step (even, so the
// iterate ends every step in its home bank).
type stencilGeom struct {
	N, n, devices, sweeps int
}

var stencilDefault = stencilGeom{N: 128, n: 32, devices: 4, sweeps: 2}

// planes is the number of page-planes, each one jacobiPlane RMI per
// sweep.
func (g stencilGeom) planes() int { return g.N / g.n }

// stepRecord is what one step returned, for the client-side replay.
type stepRecord struct {
	alpha, residual, sumsq, dot float64
}

type stencil struct {
	geom    stencilGeom
	u0, v0  []float64
	alphas  []float64
	cl      *cluster.Cluster
	su, sv  *core.BlockStorage
	u, v    *core.Array
	history []stepRecord
}

func newStencil(seed int64) workload { return newStencilGeom(seed, stencilDefault) }

func newStencilGeom(seed int64, g stencilGeom) *stencil {
	return &stencil{
		geom:   g,
		u0:     stencilField(seed, "u", g.N),
		v0:     stencilField(seed, "v", g.N),
		alphas: stencilAlphas(seed),
	}
}

func (s *stencil) callers() int          { return 1 }
func (s *stencil) tailLimit() float64    { return 0.8 }
func (s *stencil) window() time.Duration { return 0 }

func (s *stencil) full() core.Domain { return core.Box(s.geom.N, s.geom.N, s.geom.N) }

func (s *stencil) setUp(ctx context.Context, log *spanLog, parent uint64) (setupTimes, error) {
	g := s.geom
	var st setupTimes
	t0 := time.Now()
	cl, err := cluster.New(cluster.Config{Machines: g.devices, Transport: transport.TCP{}})
	t1 := time.Now()
	st.cluster = t1.Sub(t0)
	log.record(0, "cluster.start", parent, t0, t1)
	if err != nil {
		return st, err
	}
	s.cl = cl
	machines := make([]int, g.devices)
	for i := range machines {
		machines[i] = i
	}
	P := g.planes()
	mk := func(name string, banks int) (*core.BlockStorage, *core.Array, error) {
		pm, err := core.NewStripedMap(P, P, P, g.devices)
		if err != nil {
			return nil, nil, err
		}
		bs, err := core.CreateBlockStorage(ctx, cl.Client(), machines, name, banks*pm.PagesPerDevice(), g.n, g.n, g.n, pagedev.DiskPrivate)
		if err != nil {
			return nil, nil, err
		}
		arr, err := core.NewArray(ctx, bs, pm, g.N, g.N, g.N, g.n, g.n, g.n)
		return bs, arr, err
	}
	// The iterate carries the second page bank JacobiOwner sweeps into.
	if s.su, s.u, err = mk("stencil/u", 2); err != nil {
		return st, err
	}
	if s.sv, s.v, err = mk("stencil/v", 1); err != nil {
		return st, err
	}
	t2 := time.Now()
	st.alloc = t2.Sub(t1)
	log.record(0, "core.alloc", parent, t1, t2)
	if err := s.u.Write(ctx, s.u0, s.full()); err != nil {
		return st, fmt.Errorf("seed u: %w", err)
	}
	if err := s.v.Write(ctx, s.v0, s.full()); err != nil {
		return st, fmt.Errorf("seed v: %w", err)
	}
	t3 := time.Now()
	st.seed = t3.Sub(t2)
	log.record(0, "core.seed", parent, t2, t3)
	return st, nil
}

func (s *stencil) tearDown() {
	if s.cl != nil {
		_ = s.cl.Shutdown() // in-memory cluster: nothing survives it
		s.cl = nil
	}
}

// op runs one step. Steps run in stream order on one caller, so the
// step index is the position in the history.
func (s *stencil) op(ctx context.Context, _, i int, log *spanLog, parent uint64) (sample, error) {
	if i != len(s.history) {
		return sample{}, fmt.Errorf("stencil step %d out of order (have %d)", i, len(s.history))
	}
	rec := stepRecord{alpha: s.alphas[i%len(s.alphas)]}
	stepID := log.reserve()
	t0 := time.Now()
	res, err := core.JacobiOwner(ctx, s.u, s.geom.sweeps)
	t1 := time.Now()
	log.record(0, "core.jacobi", stepID, t0, t1)
	if err != nil {
		return sample{}, fmt.Errorf("JacobiOwner: %w", err)
	}
	stages, err := s.v.ApplyPipeline(ctx, s.full(), stencilPipeline, []*core.Array{s.u}, []float64{rec.alpha}, nil)
	t2 := time.Now()
	log.record(0, "core.pipeline", stepID, t1, t2)
	if err != nil {
		return sample{}, fmt.Errorf("ApplyPipeline: %w", err)
	}
	dot, err := s.u.Dot(ctx, s.v, s.full())
	t3 := time.Now()
	log.record(0, "core.dot", stepID, t2, t3)
	log.record(stepID, "stencil.step", parent, t0, t3)
	if err != nil {
		return sample{}, fmt.Errorf("Dot: %w", err)
	}
	rec.residual, rec.sumsq, rec.dot = res, stages[0].Acc[0], dot
	s.history = append(s.history, rec)
	return sample{lat: t3.Sub(t0)}, nil
}

func (s *stencil) endToEnd(r *report, p *phaseResult) {
	st := p.rec.stats(s.tailLimit())
	r.addE2E("step_p50_ms", "ms", st.p50*1e3, fmt.Sprintf("%d steps of %d sweeps", st.n, s.geom.sweeps))
	q := tailQuantile(int(st.n), 1)
	r.addE2E("step_tail_ms", "ms", p.rec.all.quantile(q)*1e3, fmt.Sprintf("p%s of %d steps", pctName(q), st.n))
}

// stepCounts are the counter deltas of a run of whole steps.
type stepCounts struct {
	steps              int
	all, core          int64 // every RMI; the client's own fan-out
	pipe, dot          int64 // RMIs of one ApplyPipeline and one Dot
	frames, bytes      int64
	admitted, shed     int64
	expired, orphaned  int64
	diskOps, diskBytes int64
	planeUs, planeP50  float64
	pipeP50, reduceP50 float64
	depth              [rmi.NumPriorities]float64
	probes             int
}

// countSteps runs steps whole steps and counts what they issued.
func (s *stencil) countSteps(ctx context.Context, steps int) (stepCounts, error) {
	sc := stepCounts{steps: steps}
	client := s.cl.Client()
	if err := settle(ctx, s.su, s.sv); err != nil {
		return sc, err
	}
	before, err := methodStats(ctx, client, s.geom.devices)
	if err != nil {
		return sc, err
	}
	smp := startSampler(func() {
		for m := 0; m < s.geom.devices; m++ {
			q := s.cl.Machine(m).Server().QueueDepths()
			for p := range q {
				sc.depth[p] += float64(q[p])
			}
		}
		sc.probes++
	})
	c0 := counters()
	for k := 0; k < steps; k++ {
		if _, err := s.op(ctx, 0, len(s.history), nil, 0); err != nil {
			smp.stop()
			return sc, err
		}
	}
	c1 := counters()
	smp.stop()
	if err := settle(ctx, s.su, s.sv); err != nil {
		return sc, err
	}
	after, err := methodStats(ctx, client, s.geom.devices)
	if err != nil {
		return sc, err
	}
	d := c1.Sub(c0)
	sc.all = d.CallsIssued
	sc.frames, sc.bytes = d.MessagesSent, d.BytesSent
	sc.admitted, sc.shed, sc.expired, sc.orphaned = d.ReqAdmitted, d.ReqShed, d.ReqExpired, d.RespOrphaned
	sc.diskOps, sc.diskBytes = d.DiskReads+d.DiskWrites, d.DiskBytesRead+d.DiskBytesWrit
	dev := pagedev.ClassArrayPageDevice + "."
	plane := methodDelta(after, before, dev+"jacobiPlane")
	pipe := methodDelta(after, before, dev+"applyPipelineK")
	red := methodDelta(after, before, dev+"reduceBinaryK")
	sc.core = plane.calls + pipe.calls + red.calls
	sc.planeUs = float64(plane.sumUs) / float64(steps)
	sc.planeP50, sc.pipeP50, sc.reduceP50 = plane.p50us, pipe.p50us, red.p50us

	// One more chain and one more Dot, each counted alone. They are
	// recorded as a step of their own in the history: a Jacobi call of
	// zero sweeps leaves the iterate as it is.
	rec := stepRecord{alpha: s.alphas[len(s.history)%len(s.alphas)]}
	p0 := counters()
	stages, err := s.v.ApplyPipeline(ctx, s.full(), stencilPipeline, []*core.Array{s.u}, []float64{rec.alpha}, nil)
	if err != nil {
		return sc, fmt.Errorf("ApplyPipeline: %w", err)
	}
	p1 := counters()
	dot, err := s.u.Dot(ctx, s.v, s.full())
	if err != nil {
		return sc, fmt.Errorf("Dot: %w", err)
	}
	p2 := counters()
	rec.residual, rec.sumsq, rec.dot = math.NaN(), stages[0].Acc[0], dot
	s.history = append(s.history, rec)
	sc.pipe = p1.Sub(p0).CallsIssued
	sc.dot = p2.Sub(p1).CallsIssued
	return sc, nil
}

func (s *stencil) layers(ctx context.Context, r *report, traced *phaseResult, spans *spanSet) error {
	g := s.geom
	r.layer("core.jacobi_ms", median(spans.durations("core.jacobi"))*1e3, "JacobiOwner, p50")
	r.layer("core.pipeline_ms", median(spans.durations("core.pipeline"))*1e3, "ApplyPipeline, p50")
	r.layer("core.dot_ms", median(spans.durations("core.dot"))*1e3, "Dot, p50")

	const steps = 2
	sc, err := s.countSteps(ctx, steps)
	r.countOps(steps+2, []error{err})
	if err != nil {
		return err
	}
	per := func(v int64) float64 { return float64(v) / steps }
	r.layer("pagedev.rmis_per_step", per(sc.all), "every RMI, device-to-device halo pulls included")
	r.layer("core.rmis_per_step", per(sc.core), "sweeps×planes + devices per chain + devices per Dot")
	r.layer("collection.rmis_per_collective", float64(sc.pipe+sc.dot)/2, "mean of one ApplyPipeline and one Dot")
	r.layer("transport.frames_per_op", per(sc.frames), "per step")
	r.layer("transport.bytes_per_op", per(sc.bytes), "per step")
	r.layer("rmi.admitted", float64(sc.admitted), fmt.Sprintf("count pass of %d steps", steps))
	r.layer("rmi.shed", float64(sc.shed), "count pass")
	r.layer("rmi.expired", float64(sc.expired), "count pass")
	r.layer("rmi.orphaned", float64(sc.orphaned), "count pass")
	r.layer("disk.ops_per_op", per(sc.diskOps), "per step")
	r.layer("disk.bytes_per_op", per(sc.diskBytes), "per step")
	if sc.probes > 0 {
		r.layer("rmi.queue_depth_mean.high", sc.depth[rmi.PrioHigh]/float64(sc.probes), "sampled, all machines summed")
		r.layer("rmi.queue_depth_mean.normal", sc.depth[rmi.PrioNormal]/float64(sc.probes), "sampled, all machines summed")
		r.layer("rmi.queue_depth_mean.bulk", sc.depth[rmi.PrioBulk]/float64(sc.probes), "sampled, all machines summed")
	}
	r.layer("pagedev.jacobi_plane_us", sc.planeP50, "server jacobiPlane, p50")
	r.layer("pagedev.pipeline_us", sc.pipeP50, "server applyPipelineK, p50")
	r.layer("pagedev.reduce_us", sc.reduceP50, "server reduceBinaryK, p50")
	cells := float64(g.sweeps) * math.Pow(float64(g.N-2), 3)
	if sc.planeUs > 0 {
		r.layer("kernel.cells_per_s", cells/(sc.planeUs*1e-6), "interior cells updated ÷ summed jacobiPlane time")
	}
	plane := float64(g.N*g.N) * 8
	r.layer("pagedev.halo_bytes_per_step", float64(g.sweeps*2*(g.planes()-1))*plane, "computed: two halo planes per inner plane boundary per sweep")
	arr := math.Pow(float64(g.N), 3) * 8
	r.layer("pagedev.bytes_touched_per_step", float64(2*g.sweeps+3+2)*arr, "computed: sweeps read+write, chain reads 2 writes 1, Dot reads 2")
	r.layer("core.degraded_writes", float64(s.u.DegradedWrites()+s.v.DegradedWrites()), "")

	var bar []float64
	for i := 0; i < 100; i++ {
		start := time.Now()
		if err := s.su.Barrier(ctx); err != nil {
			return fmt.Errorf("barrier: %w", err)
		}
		bar = append(bar, time.Since(start).Seconds()*1e6)
	}
	r.layer("collection.barrier_us", median(bar), fmt.Sprintf("BlockStorage.Barrier over %d devices", g.devices))

	// The halo reply: one n2×n3 plane per page of a page-plane.
	pages := g.planes() * g.planes()
	row := make([]float64, g.n*g.n)
	for i := range row {
		row[i] = s.u0[i]
	}
	dst := make([]float64, len(row))
	encNs, decNs, err := wireCost(200,
		func(e *wire.Encoder) {
			for p := 0; p < pages; p++ {
				e.PutFloat64s(row)
			}
		},
		func(d *wire.Decoder) error {
			for p := 0; p < pages; p++ {
				d.Float64sInto(dst)
			}
			return d.Err()
		})
	if err != nil {
		return err
	}
	haloFrame := pages * (len(row)*8 + 4)
	r.layer("wire.encode_ns", encNs, fmt.Sprintf("halo reply frame, %d B", haloFrame))
	r.layer("wire.decode_ns", decNs, fmt.Sprintf("halo reply frame, %d B", haloFrame))
	r.layer("bufpool.get_put_ns", bufpoolCost(20000, []int{96, haloFrame}), "control and halo frame classes")
	rtt, err := tcpRTT(haloFrame, 1000)
	if err != nil {
		return err
	}
	r.layer("transport.rtt_us", rtt, fmt.Sprintf("%d B frames, p50", haloFrame))
	return nil
}

// verify replays every step on the client, in the devices' own fold
// order, and checks each residual, chain sum and dot product, then the
// final iterate and chain target element by element. Tolerances are
// those of the owner-computes tests: 1e-12, relative for sums.
func (s *stencil) verify(ctx context.Context) (int64, error) {
	g := s.geom
	u := append([]float64(nil), s.u0...)
	v := append([]float64(nil), s.v0...)
	var wrong int64
	for _, h := range s.history {
		if !math.IsNaN(h.residual) {
			res := core.JacobiLocal(u, g.N, g.N, g.N, g.sweeps)
			if !near(h.residual, res) {
				wrong++
			}
		}
		for i := range v {
			v[i] += h.alpha * u[i]
		}
		if !near(h.sumsq, s.foldPlanes(v, nil)) || !near(h.dot, s.foldPlanes(u, v)) {
			wrong++
		}
	}
	for _, c := range []struct {
		arr  *core.Array
		want []float64
	}{{s.u, u}, {s.v, v}} {
		got := make([]float64, len(c.want))
		if err := c.arr.Read(ctx, got, s.full()); err != nil {
			return wrong, fmt.Errorf("read back: %w", err)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				wrong++
			}
		}
	}
	return wrong, nil
}

// foldPlanes computes Σa² (b nil) or Σa·b the way the striped devices
// do: page-plane q lives on device q mod devices, each device folds its
// pages one after another in row-major page order, and the client adds
// the device partials in device order.
func (s *stencil) foldPlanes(a, b []float64) float64 {
	g := s.geom
	P := g.planes()
	parts := make([]float64, min(P, g.devices))
	for q := 0; q < P; q++ {
		part := parts[q%g.devices]
		for p2 := 0; p2 < P; p2++ {
			for p3 := 0; p3 < P; p3++ {
				for i := q * g.n; i < (q+1)*g.n; i++ {
					for j := p2 * g.n; j < (p2+1)*g.n; j++ {
						base := (i*g.N+j)*g.N + p3*g.n
						for k := base; k < base+g.n; k++ {
							if b == nil {
								part += a[k] * a[k]
							} else {
								part += a[k] * b[k]
							}
						}
					}
				}
			}
		}
		parts[q%g.devices] = part
	}
	total := parts[0]
	for _, p := range parts[1:] {
		total += p
	}
	return total
}

// near reports whether got matches want within 1e-12, relative to
// |want| when that exceeds one.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want))
}
