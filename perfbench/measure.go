package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	oppmetrics "oopp/internal/metrics"
	"oopp/internal/rmi"
	"oopp/internal/trace"
)

// quantile returns the q-quantile of xs by nearest rank. xs must be
// sorted ascending.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailLadder lists the percentiles a tail metric may report, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.8, 0.75, 0.5}

// tailQuantile picks the highest percentile of the ladder, at most
// limit, that leaves at least ten of n samples beyond it. The limit is
// fixed per workload so the reported percentile does not flip between
// runs whose sample counts straddle a ladder step; the output states the
// percentile chosen and n.
func tailQuantile(n int, limit float64) float64 {
	for _, q := range tailLadder {
		// The rank of the q-quantile, less a rounding guard so that
		// 0.9×100 is 90 and not 90.00000000000001.
		rank := int(math.Ceil(q*float64(n) - 1e-9))
		if q <= limit && n-rank >= 10 {
			return q
		}
	}
	return 0.5
}

// sample is one timed operation of a closed loop: its latency, the
// kind of operation (workload-defined, below maxKinds) and the payload
// bytes it moved.
type sample struct {
	lat   time.Duration
	kind  int
	bytes int
}

const maxKinds = 4

// latHist is a log-linear latency histogram over nanoseconds: values
// below histSub are exact and every octave above is split into histSub
// buckets, so a quantile is read to within 1/histSub of its value.
// Recording into preallocated histograms keeps the benchmark's own heap
// constant however many operations a phase runs. internal/metrics.Hist
// is too coarse for the gated figures: it keeps whole microseconds in
// 1/16-octave buckets, so a 40 µs echo p50 can read only 38 or 40 µs,
// a 5% step that repeats exactly from run to run.
type latHist struct {
	counts [histLen]uint32
	n      int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxBits = 40 // 2^40 ns, about 18 minutes
	histLen     = (histMaxBits - histSubBits + 1) * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1
	if exp >= histMaxBits {
		return histLen - 1
	}
	sub := int(ns>>(exp-histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + sub
}

// histMid returns the middle of bucket i in nanoseconds.
func histMid(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	exp := i/histSub + histSubBits - 1
	width := int64(1) << (exp - histSubBits)
	lo := int64(1)<<exp + int64(i%histSub)*width
	return float64(lo) + float64(width)/2
}

func (h *latHist) add(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in seconds, by nearest rank.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += int64(c)
		if seen >= rank {
			return histMid(i) / 1e9
		}
	}
	return histMid(histLen-1) / 1e9
}

// recorder accumulates one closed-loop phase: every latency into the
// whole-phase and per-kind histograms and, with a window, into the
// histogram of the window the operation completed in.
type recorder struct {
	window  time.Duration
	windows []*latHist
	all     *latHist
	kinds   [maxKinds]*latHist
	bytes   int64
	last    time.Duration // completion of the last operation
}

func newRecorder(d, window time.Duration) *recorder {
	r := &recorder{window: window, all: new(latHist)}
	if window > 0 && d >= 2*window {
		r.windows = make([]*latHist, int(d/window))
		for i := range r.windows {
			r.windows[i] = new(latHist)
		}
	}
	for k := range r.kinds {
		r.kinds[k] = new(latHist)
	}
	return r
}

// add records an operation that completed done after the phase began.
func (r *recorder) add(s sample, done time.Duration) {
	r.all.add(s.lat)
	r.kinds[s.kind].add(s.lat)
	r.bytes += int64(s.bytes)
	if done > r.last {
		r.last = done
	}
	if r.windows != nil {
		w := int(done / r.window)
		if w >= len(r.windows) {
			w = len(r.windows) - 1
		}
		r.windows[w].add(s.lat)
	}
}

// heapBytes is the size of the recorder's histograms.
func (r *recorder) heapBytes() float64 {
	return float64((1 + maxKinds + len(r.windows)) * int(unsafe.Sizeof(latHist{})))
}

func (r *recorder) merge(o *recorder) {
	r.all.merge(o.all)
	for k := range r.kinds {
		r.kinds[k].merge(o.kinds[k])
	}
	for w := range r.windows {
		r.windows[w].merge(o.windows[w])
	}
	r.bytes += o.bytes
	if o.last > r.last {
		r.last = o.last
	}
}

// phaseStats summarises a timed phase.
type phaseStats struct {
	n        int64
	rate     float64 // operations per second
	p50, p99 float64 // seconds
	tail     float64 // seconds, at tailQ
	tailQ    float64
}

// stats computes a phase's rate and latency quantiles. With windows it
// reports the median over windows of each window's rate and quantiles,
// which keeps a transient stall on the shared host from moving the
// whole run; without, it summarises the phase as one.
func (r *recorder) stats(tailLimit float64) phaseStats {
	st := phaseStats{n: r.all.n, tailQ: tailQuantile(int(r.all.n), tailLimit)}
	if r.windows == nil {
		if r.last > 0 {
			st.rate = float64(r.all.n) / r.last.Seconds()
		}
		st.p50 = r.all.quantile(0.5)
		st.p99 = r.all.quantile(0.99)
		st.tail = r.all.quantile(st.tailQ)
		return st
	}
	var rates, p50s, p99s, tails []float64
	for _, h := range r.windows {
		rates = append(rates, float64(h.n)/r.window.Seconds())
		p50s = append(p50s, h.quantile(0.5))
		p99s = append(p99s, h.quantile(0.99))
		tails = append(tails, h.quantile(st.tailQ))
	}
	st.rate = median(rates)
	st.p50 = median(p50s)
	st.p99 = median(p99s)
	st.tail = median(tails)
	return st
}

// sampler polls the live Go heap and an optional probe every tick while
// a phase runs. The live heap is what the last collection marked live,
// so it tracks the program's data and not how far garbage got ahead of
// the collector.
type sampler struct {
	stopCh chan struct{}
	done   chan struct{}
	live   []float64
}

const sampleTick = 5 * time.Millisecond

func startSampler(probe func()) *sampler {
	s := &sampler{stopCh: make(chan struct{}), done: make(chan struct{}), live: make([]float64, 0, 1<<14)}
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleTick)
		defer t.Stop()
		for {
			s.live = append(s.live, liveHeap())
			if probe != nil {
				probe()
			}
			select {
			case <-s.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// liveHeap returns the bytes the last collection marked live.
func liveHeap() float64 {
	buf := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(buf)
	return float64(buf[0].Value.Uint64())
}

// heapBytes is the size of the sampler's preallocated sample buffer.
func (s *sampler) heapBytes() float64 { return float64(8 * cap(s.live)) }

// stop ends sampling and returns the 95th percentile of the live heap
// samples in bytes: the peak, less the few ticks in which a collection
// happened to mark a burst of in-flight buffers live.
func (s *sampler) stop() float64 {
	close(s.stopCh)
	<-s.done
	return quantile(sorted(s.live), 0.95)
}

// rtSnap holds the runtime/metrics counters the per-layer runtime
// metrics are deltas of.
type rtSnap struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
}

// cpuTime returns the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// Only a bad argument makes getrusage fail.
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readRuntime() rtSnap {
	buf := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(buf)
	return rtSnap{
		allocs:     buf[0].Value.Uint64(),
		allocBytes: buf[1].Value.Uint64(),
		gcCPU:      buf[2].Value.Float64(),
		totalCPU:   buf[3].Value.Float64(),
	}
}

// counters snapshots the process-global RMI, transport and disk
// counters. Every server, client and disk of the in-process cluster adds
// into the same set, so deltas are per workload, not per machine.
func counters() snapshot { return oppmetrics.Default.Snapshot() }

type snapshot = oppmetrics.Snapshot

// methodStats pulls every machine's per-method server telemetry through
// the debug plane and merges it by "class.method".
func methodStats(ctx context.Context, c *rmi.Client, machines int) (map[string]trace.MethodSnapshot, error) {
	out := make(map[string]trace.MethodSnapshot)
	for m := 0; m < machines; m++ {
		buf, err := c.Debug(ctx, m)
		if err != nil {
			return nil, fmt.Errorf("debug pull from machine %d: %w", m, err)
		}
		var snap trace.Snapshot
		if err := json.Unmarshal(buf, &snap); err != nil {
			return nil, fmt.Errorf("decode debug snapshot of machine %d: %w", m, err)
		}
		for _, ms := range snap.Methods {
			cur, ok := out[ms.Name]
			if !ok {
				out[ms.Name] = ms
				continue
			}
			var h oppmetrics.Hist
			h.Merge(cur.Hist)
			h.Merge(ms.Hist)
			cur.OK += ms.OK
			cur.Errs += ms.Errs
			cur.Expired += ms.Expired
			cur.Hist = h.Snapshot()
			out[ms.Name] = cur
		}
	}
	return out, nil
}

// barrierer is a collective whose barrier passes through every member's
// mailbox.
type barrierer interface {
	Barrier(ctx context.Context) error
}

// settle waits until the servers have recorded the telemetry of every
// call made so far to the members of colls. A server records a call's
// method stats just after sending its reply, so a pull right after the
// last reply can miss it; a barrier runs through each member's mailbox
// after the earlier calls, records included.
func settle(ctx context.Context, colls ...barrierer) error {
	for _, c := range colls {
		if err := c.Barrier(ctx); err != nil {
			return fmt.Errorf("settle telemetry: %w", err)
		}
	}
	return nil
}

// serverStat is one method's server-side telemetry between two pulls.
type serverStat struct {
	calls int64
	p50us float64
	sumUs int64
}

// methodDelta subtracts two pulls of the named methods' histograms and
// merges the differences.
func methodDelta(after, before map[string]trace.MethodSnapshot, names ...string) serverStat {
	var h oppmetrics.Hist
	var st serverStat
	for _, name := range names {
		a, b := after[name].Hist, before[name].Hist
		prev := make(map[int64]int64, len(b.Buckets))
		for _, bk := range b.Buckets {
			prev[bk[0]] = bk[1]
		}
		d := oppmetrics.HistSnapshot{Count: a.Count - b.Count, SumUs: a.SumUs - b.SumUs}
		for _, bk := range a.Buckets {
			if n := bk[1] - prev[bk[0]]; n > 0 {
				d.Buckets = append(d.Buckets, [2]int64{bk[0], n})
			}
		}
		h.Merge(d)
		st.calls += d.Count
		st.sumUs += d.SumUs
	}
	if st.calls > 0 {
		st.p50us = float64(h.QuantileUs(0.5))
	}
	return st
}

// span is one timed call the benchmark made into a layer's public
// function. Spans of one caller share that caller's phase span as
// parent, so a caller's operations form one tree.
type span struct {
	ID, Parent uint64
	Name       string
	Start, End int64 // ns since the run started
}

// spanSet collects spans in memory; each goroutine appends to its own
// spanLog and the logs are merged when the run ends.
type spanSet struct {
	t0   time.Time
	next atomic.Uint64
	mu   sync.Mutex // guards logs
	logs []*spanLog
}

func newSpanSet() *spanSet { return &spanSet{t0: time.Now()} }

// log returns a new per-goroutine log. A nil set returns a nil log,
// whose methods record nothing.
func (s *spanSet) log() *spanLog {
	if s == nil {
		return nil
	}
	l := &spanLog{set: s}
	s.mu.Lock()
	s.logs = append(s.logs, l)
	s.mu.Unlock()
	return l
}

type spanLog struct {
	set   *spanSet
	spans []span
}

// reserve returns a fresh span id, for a parent span that is recorded
// after its children.
func (l *spanLog) reserve() uint64 {
	if l == nil {
		return 0
	}
	return l.set.next.Add(1)
}

// record appends a finished span under id (0: a fresh one) and returns
// the id.
func (l *spanLog) record(id uint64, name string, parent uint64, start, end time.Time) uint64 {
	if l == nil {
		return 0
	}
	if id == 0 {
		id = l.set.next.Add(1)
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.set.t0)), End: int64(end.Sub(l.set.t0))})
	return id
}

// durations returns the durations of every span called name, in
// seconds.
func (s *spanSet) durations(name string) []float64 {
	if s == nil {
		return nil
	}
	var out []float64
	for _, l := range s.logs {
		for _, sp := range l.spans {
			if sp.Name == name {
				out = append(out, float64(sp.End-sp.Start)/1e9)
			}
		}
	}
	return out
}

func (s *spanSet) all() []span {
	var out []span
	for _, l := range s.logs {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
