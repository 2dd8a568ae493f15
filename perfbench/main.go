// Command perfbench is the repository benchmark. It brings up an
// in-process cluster whose machines talk over loopback TCP, with the
// link and disk models at zero so that the figures measure the program
// and not modeled sleeps, and runs one seeded workload in a closed loop:
//
//	rmi-echo  per-message cost: echo, ping and relay calls through a pool
//	stencil   device kernels: owner-computes Jacobi, a fused chain, a dot
//	array-rw  Array orchestration: replicated sub-box reads and writes
//
// Every output is checked. The last line of standard output is one JSON
// object with the end-to-end metrics (-trace 0) or the per-layer metrics
// of a traced run (-trace 1); the lines before it are a readable table
// and the run's environment. The full result, and with -trace 1 the
// recorded spans, are also written under -out.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"oopp/internal/rmi"
)

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	cpuProfile string
	memProfile string
	out        string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the measured phases to `file`")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile at the end of the run to `file`")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "results"), "`dir` for the full result and span files")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workload is one benchmark scenario, holding its generated inputs. The
// harness sets it up and tears it down several times (set-up time is
// reported as the median), keeps the last set-up, runs its closed loop
// through op, and asks it for its metrics and its final correctness
// check.
type workload interface {
	// setUp brings up the cluster and the workload's objects and seeds
	// them, recording one span per step under parent.
	setUp(ctx context.Context, log *spanLog, parent uint64) (setupTimes, error)
	tearDown()
	// callers is the number of closed-loop callers.
	callers() int
	// op runs the i-th operation of caller's input stream.
	op(ctx context.Context, caller, i int, log *spanLog, parent uint64) (sample, error)
	// tailLimit caps the tail percentile (see tailQuantile); window is
	// the summary window (see recorder.stats).
	tailLimit() float64
	window() time.Duration
	// endToEnd adds the workload's own end-to-end table rows.
	endToEnd(r *report, p *phaseResult)
	// layers measures the per-layer metrics after the traced phase.
	layers(ctx context.Context, r *report, traced *phaseResult, spans *spanSet) error
	// verify checks the program's state once every operation has
	// finished and returns the number of mismatches.
	verify(ctx context.Context) (int64, error)
}

var workloads = map[string]func(seed int64) workload{
	"rmi-echo": newEcho,
	"stencil":  newStencil,
	"array-rw": newArrayRW,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupTimes are the timed steps of one set-up.
type setupTimes struct {
	cluster, alloc, seed time.Duration
}

func (s setupTimes) total() time.Duration { return s.cluster + s.alloc + s.seed }

// A run first sets its workload up warmSetups times untimed, since the
// first set-ups of a process run up to twice as slow as later ones. It
// then sets it up at least minSetups times, and more until the set-ups
// have taken setupBudget or maxSetups were made; set-up time is the
// median. Fast set-ups are repeated more, because scheduling noise
// weighs more on them.
const (
	warmSetups  = 2
	minSetups   = 15
	maxSetups   = 99
	setupBudget = 2 * time.Second
)

// warmUp is how long every run exercises its workload before measuring.
const warmUp = 3 * time.Second

// errWrong marks an operation whose output failed its check.
var errWrong = errors.New("wrong output")

func run(o options) error {
	mk, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	ctx := context.Background()
	r := newReport(o)

	var spans *spanSet
	if o.trace == 1 {
		spans = newSpanSet()
	}
	setupLog := spans.log()

	w := mk(o.seed)
	// The live heap with the inputs built is the benchmark's own data;
	// mem_peak_mb counts only what the program holds beyond it.
	runtime.GC()
	r.heapBase = liveHeap()
	var setups []float64
	var steps []setupTimes
	var spent time.Duration
	for i := -warmSetups; ; i++ {
		// Collect the torn-down cluster before timing the next set-up,
		// so that its pages are not swept inside the set-up.
		runtime.GC()
		root := setupLog.reserve()
		start := time.Now()
		st, err := w.setUp(ctx, setupLog, root)
		setupLog.record(root, "bench.setup", 0, start, time.Now())
		if err != nil {
			w.tearDown()
			return fmt.Errorf("set-up: %w", err)
		}
		if i < 0 {
			w.tearDown()
			continue
		}
		setups = append(setups, st.total().Seconds())
		steps = append(steps, st)
		spent += st.total()
		if i+1 >= maxSetups || (i+1 >= minSetups && spent >= setupBudget) {
			break
		}
		w.tearDown()
	}
	defer w.tearDown()
	r.setupS, r.setups = median(setups), len(setups)

	// The warm-up is a phase of its own, untimed but checked: it lets
	// connections, pools and caches settle, and the host's scheduling
	// with them, which on a shared two-core host takes a few seconds.
	pos := make([]int, w.callers())
	r.absorb(runPhase(ctx, w, warmUp, pos, nil))
	stopProfile, err := startCPUProfile(o.cpuProfile)
	if err != nil {
		return err
	}
	d := time.Duration(o.seconds) * time.Second
	if o.trace == 1 {
		d /= 2
	}
	plain := runPhase(ctx, w, d, pos, nil)
	r.absorb(plain)
	var traced *phaseResult
	if o.trace == 1 {
		traced = runPhase(ctx, w, d, pos, spans)
		r.absorb(traced)
	}
	stopProfile()

	r.gate(w, plain)
	w.endToEnd(r, plain)
	if o.trace == 1 {
		r.setupLayers(steps)
		r.runtimeLayers(traced)
		if err := w.layers(ctx, r, traced, spans); err != nil {
			return fmt.Errorf("per-layer metrics: %w", err)
		}
		tr, pl := traced.rec.stats(w.tailLimit()), plain.rec.stats(w.tailLimit())
		r.layer("trace.overhead_pct", 100*(tr.p50-pl.p50)/pl.p50, "p50 operation latency, traced half against untraced half")
	}

	wrong, err := w.verify(ctx)
	if err != nil {
		return fmt.Errorf("final check: %w", err)
	}
	r.wrong += wrong
	if wrong > 0 {
		r.checks = append(r.checks, fmt.Sprintf("final check: %d mismatches", wrong))
	}
	if err := writeHeapProfile(o.memProfile); err != nil {
		return err
	}
	if spans != nil {
		if err := r.writeSpans(spans); err != nil {
			return err
		}
	}
	if err := r.emit(); err != nil {
		return err
	}
	if !r.correct() {
		return fmt.Errorf("%d wrong, %d failed, %d refused operations", r.wrong, r.failed, r.refused)
	}
	return nil
}

// phaseResult is what one timed phase of the closed loop produced.
type phaseResult struct {
	rec                               *recorder
	attempted, failed, refused, wrong int64
	firstErr                          error
	peakHeap                          float64 // bytes, less the phase's own bookkeeping
	rt0, rt1                          rtSnap
	cpu                               time.Duration // process CPU time used
}

// maxFailures stops a phase early once this many operations failed: a
// broken cluster should end the run, not spin.
const maxFailures = 1000

// runPhase runs every caller's closed loop for d. pos holds each
// caller's position in its input stream, so that every phase continues
// the stream where the previous one stopped. With spans non-nil it is
// the traced phase: each operation records a span under its caller's
// phase span.
func runPhase(ctx context.Context, w workload, d time.Duration, pos []int, spans *spanSet) *phaseResult {
	per := make([]*phaseResult, w.callers())
	logs := make([]*spanLog, w.callers())
	for c := range per {
		per[c] = &phaseResult{rec: newRecorder(d, w.window())}
		logs[c] = spans.log()
	}
	p := &phaseResult{rec: newRecorder(d, w.window())}
	// Start from a collected heap, so that garbage of earlier phases and
	// set-ups does not count toward this phase's peak.
	runtime.GC()
	smp := startSampler(nil)
	p.rt0 = readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.callers(); c++ {
		wg.Add(1)
		go func(c int, mine *phaseResult, log *spanLog) {
			defer wg.Done()
			root := log.reserve()
			for time.Since(start) < d && mine.failed < maxFailures {
				s, err := w.op(ctx, c, pos[c], log, root)
				pos[c]++
				mine.attempted++
				switch {
				case err == nil:
					mine.rec.add(s, time.Since(start))
					continue
				case errors.Is(err, errWrong):
					mine.wrong++
				case errors.Is(err, rmi.ErrOverloaded):
					mine.refused++
				default:
					mine.failed++
				}
				if mine.firstErr == nil {
					mine.firstErr = fmt.Errorf("caller %d op %d: %w", c, pos[c]-1, err)
				}
			}
			log.record(root, "bench.phase", 0, start, time.Now())
		}(c, per[c], logs[c])
	}
	wg.Wait()
	p.cpu = cpuTime() - cpu0
	p.rt1 = readRuntime()
	// The histograms and the sample buffer are the benchmark's own data.
	own := p.rec.heapBytes() + smp.heapBytes()
	for _, m := range per {
		own += m.rec.heapBytes()
	}
	p.peakHeap = smp.stop() - own
	for _, m := range per {
		p.rec.merge(m.rec)
		p.attempted += m.attempted
		p.failed += m.failed
		p.refused += m.refused
		p.wrong += m.wrong
		if p.firstErr == nil {
			p.firstErr = m.firstErr
		}
	}
	return p
}

func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		}
	}, nil
}

func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("heap profile: %w", err)
	}
	return f.Close()
}

// envInfo is recorded beside every result, so that results from
// different hosts or settings are not compared silently.
type envInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	Setting    string `json:"setting"`
}

func environment(o options) envInfo {
	commit := "unknown (built outside a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return envInfo{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commit,
		Setting:    "loopback TCP, link/disk model zero",
	}
}

// metric is one reported figure.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// gateMetrics are the end-to-end metrics every workload reports under
// the same names (BENCHMARK.json's end_to_end), with their units.
var gateMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"mem_peak_mb", "MiB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

// layerUnits lists every per-layer metric (BENCHMARK.json's per_layer)
// with its unit. Every workload reports all of them; a layer the
// workload does not use reads 0.
var layerUnits = map[string]string{
	"wire.encode_ns":                 "ns",
	"wire.decode_ns":                 "ns",
	"bufpool.get_put_ns":             "ns",
	"runtime.allocs_per_op":          "count",
	"runtime.alloc_bytes_per_op":     "B",
	"runtime.gc_cpu_frac":            "fraction",
	"transport.frames_per_op":        "count",
	"transport.bytes_per_op":         "B",
	"transport.rtt_us":               "us",
	"rmi.client_call_p50_us":         "us",
	"rmi.client_call_p99_us":         "us",
	"rmi.server_us.serve.Work.echo":  "us",
	"rmi.server_us.serve.Work.relay": "us",
	"rmi.wire_overhead_us":           "us",
	"rmi.queue_depth_mean.high":      "count",
	"rmi.queue_depth_mean.normal":    "count",
	"rmi.queue_depth_mean.bulk":      "count",
	"rmi.admitted":                   "count",
	"rmi.shed":                       "count",
	"rmi.expired":                    "count",
	"rmi.orphaned":                   "count",
	"rmi.ping_us":                    "us",
	"serve.inflight_mean":            "count",
	"serve.relay_us":                 "us",
	"collection.barrier_us":          "us",
	"collection.rmis_per_collective": "count",
	"pagedev.jacobi_plane_us":        "us",
	"pagedev.pipeline_us":            "us",
	"pagedev.reduce_us":              "us",
	"pagedev.read_us":                "us",
	"pagedev.write_us":               "us",
	"pagedev.rmis_per_step":          "count",
	"pagedev.halo_bytes_per_step":    "B",
	"pagedev.bytes_touched_per_step": "B",
	"core.rmis_per_step":             "count",
	"kernel.cells_per_s":             "1/s",
	"core.jacobi_ms":                 "ms",
	"core.pipeline_ms":               "ms",
	"core.dot_ms":                    "ms",
	"core.read_ms":                   "ms",
	"core.write_ms":                  "ms",
	"core.regions_per_op":            "count",
	"core.read_amplification":        "ratio",
	"core.write_fanout":              "ratio",
	"core.degraded_writes":           "count",
	"disk.ops_per_op":                "count",
	"disk.bytes_per_op":              "B",
	"cluster.start_ms":               "ms",
	"core.alloc_ms":                  "ms",
	"core.seed_ms":                   "ms",
	"trace.overhead_pct":             "%",
}

// report gathers one run's figures and checks.
type report struct {
	env                               envInfo
	out                               string
	setupS                            float64
	setups                            int
	heapBase                          float64 // bytes live before set-up: the inputs
	attempted, failed, refused, wrong int64
	checks                            []string
	e2e                               []metric
	gates                             map[string]metric
	layers                            map[string]metric
}

func newReport(o options) *report {
	return &report{
		env:    environment(o),
		out:    o.out,
		gates:  make(map[string]metric),
		layers: make(map[string]metric),
	}
}

// absorb counts a phase's operations and keeps its first error.
func (r *report) absorb(p *phaseResult) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.refused += p.refused
	r.wrong += p.wrong
	if p.firstErr != nil {
		r.checks = append(r.checks, p.firstErr.Error())
	}
}

// countOps adds n operations made outside the timed phases (a count
// pass), of which the non-nil errs failed.
func (r *report) countOps(n int, errs []error) {
	for _, err := range errs {
		if err != nil {
			r.countOp(err)
			n--
		}
	}
	r.attempted += int64(n)
}

// countOp adds the outcome of one operation made outside the timed
// phases.
func (r *report) countOp(err error) {
	r.attempted++
	switch {
	case err == nil:
		return
	case errors.Is(err, errWrong):
		r.wrong++
	case errors.Is(err, rmi.ErrOverloaded):
		r.refused++
	default:
		r.failed++
	}
	if len(r.checks) < 8 {
		r.checks = append(r.checks, err.Error())
	}
}

func (r *report) correct() bool { return r.wrong == 0 && r.failed == 0 && r.refused == 0 }

// addE2E adds a row of the workload's end-to-end table.
func (r *report) addE2E(name, unit string, v float64, note string) {
	r.e2e = append(r.e2e, metric{Name: name, Value: v, Unit: unit, Note: note})
}

// layer sets a per-layer metric; the unit comes from layerUnits.
func (r *report) layer(name string, v float64, note string) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unlisted layer metric " + name)
	}
	r.layers[name] = metric{Name: name, Value: v, Unit: unit, Note: note}
}

// gate fills the shared end-to-end metrics from the untraced phase.
func (r *report) gate(w workload, p *phaseResult) {
	st := p.rec.stats(w.tailLimit())
	set := func(name string, v float64, note string) {
		for _, g := range gateMetrics {
			if g.name == name {
				r.gates[name] = metric{Name: name, Value: v, Unit: g.unit, Note: note}
				return
			}
		}
		panic("perfbench: unlisted gate metric " + name)
	}
	set("setup_s", r.setupS, fmt.Sprintf("median of %d set-ups", r.setups))
	set("mem_peak_mb", (p.peakHeap-r.heapBase)/(1<<20),
		fmt.Sprintf("p95 of the live Go heap, sampled every 5 ms while measuring, less the %.1f MiB of inputs live before set-up", r.heapBase/(1<<20)))
	set("ops_per_s", st.rate, fmt.Sprintf("%d ops", st.n))
	set("op_p50_ms", st.p50*1e3, "")
	set("op_tail_ms", st.tail*1e3, fmt.Sprintf("p%s of %d", pctName(st.tailQ), st.n))
	set("cpu_ms_per_op", p.cpu.Seconds()*1e3/float64(max(st.n, 1)), "process CPU time, user and system")
}

// setupLayers reports the set-up steps, each the median over the
// set-ups of the run.
func (r *report) setupLayers(steps []setupTimes) {
	var cl, al, sd []float64
	for _, s := range steps {
		cl = append(cl, s.cluster.Seconds()*1e3)
		al = append(al, s.alloc.Seconds()*1e3)
		sd = append(sd, s.seed.Seconds()*1e3)
	}
	r.layer("cluster.start_ms", median(cl), "cluster.New")
	r.layer("core.alloc_ms", median(al), "constructing the workload's remote objects")
	r.layer("core.seed_ms", median(sd), "writing the seeded initial state")
}

// runtimeLayers reports the runtime/metrics deltas of the traced phase.
func (r *report) runtimeLayers(p *phaseResult) {
	ops := float64(p.rec.all.n)
	if ops == 0 {
		ops = 1
	}
	r.layer("runtime.allocs_per_op", float64(p.rt1.allocs-p.rt0.allocs)/ops, "")
	r.layer("runtime.alloc_bytes_per_op", float64(p.rt1.allocBytes-p.rt0.allocBytes)/ops, "")
	if cpu := p.rt1.totalCPU - p.rt0.totalCPU; cpu > 0 {
		r.layer("runtime.gc_cpu_frac", (p.rt1.gcCPU-p.rt0.gcCPU)/cpu, "")
	}
}

func pctName(q float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.1f", q*100), "0"), ".")
}

// result is the full record written under -out.
type result struct {
	Env       envInfo  `json:"env"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Refused   int64    `json:"refused"`
	Wrong     int64    `json:"wrong"`
	Checks    []string `json:"checks,omitempty"`
	InputsMB  float64  `json:"inputs_mb"` // live heap before set-up, left out of mem_peak_mb
	EndToEnd  []metric `json:"end_to_end"`
	Gates     []metric `json:"gates"`
	Layers    []metric `json:"per_layer,omitempty"`
}

func (r *report) result() result {
	res := result{
		Env: r.env, Correct: r.correct(),
		Attempted: r.attempted, Failed: r.failed, Refused: r.refused, Wrong: r.wrong,
		Checks: r.checks, InputsMB: r.heapBase / (1 << 20),
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed+r.refused+r.wrong) / float64(r.attempted)
	}
	res.EndToEnd = append([]metric{
		r.gates["setup_s"],
		{Name: "error_rate", Value: errRate, Unit: "fraction",
			Note: fmt.Sprintf("%d failed, %d refused, %d wrong of %d", r.failed, r.refused, r.wrong, r.attempted)},
		r.gates["mem_peak_mb"],
	}, r.e2e...)
	for _, g := range gateMetrics {
		res.Gates = append(res.Gates, r.gates[g.name])
	}
	if r.env.Trace == 1 {
		for _, name := range sortedKeys(layerUnits) {
			m, ok := r.layers[name]
			if !ok {
				m = metric{Name: name, Unit: layerUnits[name], Note: "layer not used by this workload"}
			}
			res.Layers = append(res.Layers, m)
		}
	}
	return res
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (r *report) baseName() string {
	return filepath.Join(r.out, fmt.Sprintf("%s-seed%d-trace%d", r.env.Workload, r.env.Seed, r.env.Trace))
}

// emit prints the table, the environment and the final JSON line, and
// writes the full result file.
func (r *report) emit() error {
	res := r.result()
	envJSON, err := json.Marshal(res.Env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envJSON)
	printTable := func(title string, ms []metric) {
		fmt.Printf("%s\n", title)
		for _, m := range ms {
			fmt.Printf("  %-34s %14.6g %-9s %s\n", m.Name, m.Value, m.Unit, m.Note)
		}
	}
	printTable("end-to-end ("+r.env.Workload+")", res.EndToEnd)
	printTable("gated end-to-end", res.Gates)
	if r.env.Trace == 1 {
		printTable("per-layer (traced run)", res.Layers)
	}
	for _, c := range res.Checks {
		fmt.Printf("check: %s\n", c)
	}

	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return fmt.Errorf("result dir: %w", err)
	}
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(r.baseName()+".json", full, 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct, Attempted: r.attempted, Failed: r.failed + r.refused + r.wrong, Metrics: map[string]value{}}
	if r.env.Trace == 1 {
		for _, m := range res.Layers {
			last.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	} else {
		for _, m := range res.Gates {
			last.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeSpans writes every recorded span next to the result file, one
// tab-separated line per span after a header line.
func (r *report) writeSpans(s *spanSet) error {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return fmt.Errorf("span dir: %w", err)
	}
	f, err := os.Create(r.baseName() + ".spans.tsv")
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for _, sp := range s.all() {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", sp.ID, sp.Parent, sp.Name, sp.Start, sp.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
