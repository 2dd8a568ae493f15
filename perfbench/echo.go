package main

// The rmi-echo workload: per-message cost. Two closed-loop callers share
// a serve.Pool of two connections per machine to a two-machine cluster
// and call serve.Work objects with a seeded mix of 64 B echo, 4 KiB
// echo, high-priority ping and the two-hop relay. No array page is
// touched, so wire, bufpool, transport and the RMI send, admission,
// mailbox and dispatch paths carry the cost. The loop is closed because
// the paper's callers wait for their replies, and because on a small
// shared host a sleep-paced open loop measures its own pacer.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/collection"
	"oopp/internal/rmi"
	"oopp/internal/serve"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

const (
	echoMachines = 2
	echoCallers  = 2
	echoConns    = 2
	// callTimeout bounds every call, so a hang shows as a failure.
	callTimeout = 30 * time.Second
)

type echo struct {
	inputs [][]echoOp
	cl     *cluster.Cluster
	pool   *serve.Pool
	sess   []*serve.Session
	front  []rmi.Ref // per machine: the echo and relay target
	peers  []rmi.Ref // per machine: the relay's echo peer, on the next machine
}

func newEcho(seed int64) workload {
	e := &echo{}
	for c := 0; c < echoCallers; c++ {
		e.inputs = append(e.inputs, echoInputs(seed, c, echoMachines))
	}
	return e
}

func (e *echo) callers() int          { return echoCallers }
func (e *echo) tailLimit() float64    { return 0.95 }
func (e *echo) window() time.Duration { return time.Second }

func (e *echo) setUp(ctx context.Context, log *spanLog, parent uint64) (setupTimes, error) {
	var st setupTimes
	e.front, e.peers, e.sess = nil, nil, nil
	t0 := time.Now()
	cl, err := cluster.New(cluster.Config{Machines: echoMachines, Transport: transport.TCP{}})
	t1 := time.Now()
	st.cluster = t1.Sub(t0)
	log.record(0, "cluster.start", parent, t0, t1)
	if err != nil {
		return st, err
	}
	e.cl = cl
	e.pool, err = serve.NewPool(serve.PoolConfig{Transport: transport.TCP{}, Directory: cl.Directory(), Conns: echoConns})
	if err != nil {
		return st, err
	}
	boot := e.pool.Session(rmi.WithTimeout(callTimeout))
	// Each front object relays through a dedicated peer on the next
	// machine, never through another front object: serial relays
	// waiting on each other's serial echoes would deadlock.
	for m := 0; m < echoMachines; m++ {
		front, err := boot.New(ctx, m, serve.ClassWork, nil)
		if err != nil {
			return st, fmt.Errorf("machine %d: new %s: %w", m, serve.ClassWork, err)
		}
		peer, err := boot.New(ctx, (m+1)%echoMachines, serve.ClassWork, nil)
		if err != nil {
			return st, fmt.Errorf("machine %d: new relay peer: %w", m, err)
		}
		d, err := boot.Call(ctx, front, "bind", serve.BindArgs(peer))
		if err != nil {
			return st, fmt.Errorf("machine %d: bind relay peer: %w", m, err)
		}
		d.Release()
		e.front = append(e.front, front)
		e.peers = append(e.peers, peer)
	}
	t2 := time.Now()
	st.alloc = t2.Sub(t1)
	log.record(0, "core.alloc", parent, t1, t2)
	for c := 0; c < echoCallers; c++ {
		e.sess = append(e.sess, e.pool.Session(rmi.WithTimeout(callTimeout)))
	}
	return st, nil
}

func (e *echo) tearDown() {
	if e.pool != nil {
		_ = e.pool.Close() // calls have all returned; nothing to flush
		e.pool = nil
	}
	if e.cl != nil {
		_ = e.cl.Shutdown() // in-memory cluster: nothing survives it
		e.cl = nil
	}
}

var echoSpanNames = [...]string{"rmi.client_call.echo64", "rmi.client_call.echo4k", "rmi.ping", "serve.relay"}

func (e *echo) op(ctx context.Context, caller, i int, log *spanLog, parent uint64) (sample, error) {
	in := e.inputs[caller][i%echoRing]
	s := e.sess[caller]
	var d *wire.Decoder
	var err error
	method := "echo"
	start := time.Now()
	switch in.kind {
	case kindPing:
		err = s.Ping(ctx, in.machine, rmi.WithPriority(rmi.PrioHigh))
	case kindRelay:
		method = "relay"
		d, err = s.Call(ctx, e.front[in.machine], method, serve.EchoArgs(in.payload))
	default:
		d, err = s.Call(ctx, e.front[in.machine], method, serve.EchoArgs(in.payload))
	}
	end := time.Now()
	log.record(0, echoSpanNames[in.kind], parent, start, end)
	smp := sample{lat: end.Sub(start), kind: in.kind, bytes: len(in.payload)}
	if err != nil || d == nil {
		return smp, err
	}
	defer d.Release()
	got := d.BytesView()
	if err := d.Err(); err != nil {
		return smp, fmt.Errorf("%s reply: %w", method, err)
	}
	if !bytes.Equal(got, in.payload) {
		return smp, fmt.Errorf("%s reply of %d bytes differs from its %d-byte payload: %w", method, len(got), len(in.payload), errWrong)
	}
	return smp, nil
}

func (e *echo) endToEnd(r *report, p *phaseResult) {
	st := p.rec.stats(e.tailLimit())
	r.addE2E("calls_per_s", "calls/s", st.rate, fmt.Sprintf("median of 1 s windows, %d calls", st.n))
	r.addE2E("call_p50_us", "us", st.p50*1e6, "median of 1 s windows")
	r.addE2E("call_p99_us", "us", st.p99*1e6, "median of 1 s windows")
}

func (e *echo) layers(ctx context.Context, r *report, traced *phaseResult, spans *spanSet) error {
	calls := sorted(append(spans.durations("rmi.client_call.echo64"), spans.durations("rmi.client_call.echo4k")...))
	r.layer("rmi.client_call_p50_us", quantile(calls, 0.5)*1e6, "Session.Call of echo, traced phase")
	r.layer("rmi.client_call_p99_us", quantile(calls, 0.99)*1e6, "Session.Call of echo, traced phase")
	r.layer("rmi.ping_us", median(spans.durations("rmi.ping"))*1e6, "high-priority Session.Ping, p50")
	r.layer("serve.relay_us", median(spans.durations("serve.relay"))*1e6, "relay through the peer machine, p50")

	// Count pass: every caller runs its whole input stream twice, so the
	// counts repeat exactly for a seed.
	client := e.pool.ClientFor(0)
	refs := append(append([]rmi.Ref(nil), e.front...), e.peers...)
	coll := collection.FromRefs[struct{}](client, refs)
	if err := settle(ctx, coll); err != nil {
		return err
	}
	before, err := methodStats(ctx, client, echoMachines)
	if err != nil {
		return err
	}
	var depth [rmi.NumPriorities]float64
	var inflight float64
	probes := 0
	smp := startSampler(func() {
		for m := 0; m < echoMachines; m++ {
			q := e.cl.Machine(m).Server().QueueDepths()
			for p := range q {
				depth[p] += float64(q[p])
			}
		}
		inflight += float64(e.pool.InFlight())
		probes++
	})
	c0 := counters()
	const passes = 2
	var wg sync.WaitGroup
	errs := make([][]error, echoCallers)
	for c := 0; c < echoCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < passes*echoRing; i++ {
				if _, err := e.op(ctx, c, i, nil, 0); err != nil {
					errs[c] = append(errs[c], err)
				}
			}
		}(c)
	}
	wg.Wait()
	c1 := counters()
	smp.stop()
	for _, es := range errs {
		r.countOps(passes*echoRing, es)
	}
	if err := settle(ctx, coll); err != nil {
		return err
	}
	after, err := methodStats(ctx, client, echoMachines)
	if err != nil {
		return err
	}
	ops := float64(passes * echoRing * echoCallers)
	dc := c1.Sub(c0)
	r.layer("transport.frames_per_op", float64(dc.MessagesSent)/ops, "count pass")
	r.layer("transport.bytes_per_op", float64(dc.BytesSent)/ops, "count pass")
	r.layer("rmi.admitted", float64(dc.ReqAdmitted), fmt.Sprintf("count pass of %.0f calls", ops))
	r.layer("rmi.shed", float64(dc.ReqShed), "count pass")
	r.layer("rmi.expired", float64(dc.ReqExpired), "count pass")
	r.layer("rmi.orphaned", float64(dc.RespOrphaned), "count pass")
	r.layer("disk.ops_per_op", float64(dc.DiskReads+dc.DiskWrites)/ops, "count pass")
	r.layer("disk.bytes_per_op", float64(dc.DiskBytesRead+dc.DiskBytesWrit)/ops, "count pass")
	if probes > 0 {
		r.layer("rmi.queue_depth_mean.high", depth[rmi.PrioHigh]/float64(probes), "sampled, both machines summed")
		r.layer("rmi.queue_depth_mean.normal", depth[rmi.PrioNormal]/float64(probes), "sampled, both machines summed")
		r.layer("rmi.queue_depth_mean.bulk", depth[rmi.PrioBulk]/float64(probes), "sampled, both machines summed")
		r.layer("serve.inflight_mean", inflight/float64(probes), "sampled Pool.InFlight")
	}
	echoStat := methodDelta(after, before, serve.ClassWork+".echo")
	relayStat := methodDelta(after, before, serve.ClassWork+".relay")
	r.layer("rmi.server_us.serve.Work.echo", echoStat.p50us, "admission to reply, p50, count pass")
	r.layer("rmi.server_us.serve.Work.relay", relayStat.p50us, "admission to reply, p50, count pass")
	r.layer("rmi.wire_overhead_us", quantile(calls, 0.5)*1e6-echoStat.p50us, "client echo p50 minus server echo p50")

	// A barrier over every Work object: one ping per member.
	var bar []float64
	b0 := counters()
	const barriers = 200
	for i := 0; i < barriers; i++ {
		start := time.Now()
		if err := coll.Barrier(ctx); err != nil {
			return fmt.Errorf("barrier: %w", err)
		}
		bar = append(bar, time.Since(start).Seconds()*1e6)
	}
	r.layer("collection.barrier_us", median(bar), fmt.Sprintf("Barrier over %d Work objects", len(refs)))
	r.layer("collection.rmis_per_collective", float64(counters().Sub(b0).CallsIssued)/barriers, "per Barrier")

	var payload []byte
	for _, in := range e.inputs[0] {
		if in.kind == kindEcho {
			payload = in.payload
			break
		}
	}
	encNs, decNs, err := wireCost(200000,
		func(w *wire.Encoder) {
			w.PutByte(byte(rmi.PrioNormal))
			w.PutUvarint(1 << 20)
			w.PutUvarint(2)
			w.PutUvarint(7)
			w.PutString("echo")
			w.PutBytes(payload)
		},
		func(d *wire.Decoder) error {
			d.Byte()
			d.Uvarint()
			d.Uvarint()
			d.Uvarint()
			d.StringBytes()
			d.BytesView()
			return d.Err()
		})
	if err != nil {
		return err
	}
	r.layer("wire.encode_ns", encNs, "64 B echo request frame")
	r.layer("wire.decode_ns", decNs, "64 B echo request frame")
	r.layer("bufpool.get_put_ns", bufpoolCost(200000, []int{96, echoLarge + 32}), "64 B and 4 KiB frame classes")
	rtt, err := tcpRTT(96, 5000)
	if err != nil {
		return err
	}
	r.layer("transport.rtt_us", rtt, "96 B frames, p50")
	return nil
}

// verify has nothing left to check: every reply was compared to its
// payload as it arrived.
func (e *echo) verify(ctx context.Context) (int64, error) { return 0, nil }
