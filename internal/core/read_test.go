package core_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"oopp/internal/core"
	"oopp/internal/metrics"
	"oopp/internal/rmi"
)

// specialBits are float64 patterns an arithmetic path would not keep:
// NaNs with distinct payloads and signs, -0 and both infinities.
var specialBits = []uint64{
	0x7ff8000000000001, // quiet NaN, payload 1
	0xfff4000000000abc, // negative signalling NaN, payload 0xabc
	0x7ff0000000000001, // smallest signalling NaN
	0x8000000000000000, // -0
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // -Inf
	0x0000000000000001, // smallest subnormal
}

func specialAt(i int) float64 { return math.Float64frombits(specialBits[i%len(specialBits)]) }

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d has bits %#x, want %#x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestReadWriteKeepBits round-trips raw bit patterns through Write and
// Read, on whole pages (writeArray) and partial boxes (writeSub), read
// back through both partial boxes and whole pages: element data moves
// as page bytes, so every bit must survive.
func TestReadWriteKeepBits(t *testing.T) {
	const N, n = 8, 4
	arr, done := buildArray(t, "roundrobin", 2, N, N, N, n, n, n)
	defer done()

	full := core.Box(N, N, N)
	sh := newShadow(N, N, N)
	for i := range sh.data {
		sh.data[i] = specialAt(i)
	}
	if err := arr.Write(bg, sh.data, full); err != nil {
		t.Fatalf("write whole pages: %v", err)
	}
	// A partial box straddling all eight pages, shifted through the
	// pattern so it overwrites each element with different bits.
	part := core.NewDomain(1, 7, 2, 6, 3, 5)
	vals := make([]float64, part.Size())
	for i := range vals {
		vals[i] = specialAt(i + 3)
	}
	if err := arr.Write(bg, vals, part); err != nil {
		t.Fatalf("write partial box: %v", err)
	}
	sh.write(vals, part)

	for _, pipeline := range []bool{true, false} {
		arr.SetPipeline(pipeline)
		for _, dom := range []core.Domain{
			full,
			core.NewDomain(0, n, 0, n, 0, n), // exactly one page
			part,
			core.NewDomain(3, 6, 0, 8, 1, 2),
			core.NewDomain(5, 6, 5, 6, 5, 6),
		} {
			got := make([]float64, dom.Size())
			if err := arr.Read(bg, got, dom); err != nil {
				t.Fatalf("pipeline=%v read %v: %v", pipeline, dom, err)
			}
			sameBits(t, fmt.Sprintf("pipeline=%v %v", pipeline, dom), got, sh.read(dom))
		}
	}
}

// TestPartialReadReplicaFallback kills a machine without telling the
// client (no heartbeat), so read rotation still picks its replicas and
// the call itself fails. With k=2 every partial-box read must then be
// served by the other replica; with k=1 it must fail with the typed
// machine-down error.
func TestPartialReadReplicaFallback(t *testing.T) {
	const N, n, devices = 8, 4, 4
	// A partial box of page (0,0,0): one region per read, so the
	// per-Array rotation alternates over that page's chain read by read.
	dom := core.NewDomain(1, 3, 1, 4, 2, 3)

	for _, k := range []int{2, 1} {
		cl, arr, done := buildReplicated(t, "roundrobin", devices, k, N, N, N, n, n, n, 0)
		full := core.Box(N, N, N)
		sh := newShadow(N, N, N)
		for i := range sh.data {
			sh.data[i] = float64(i)
		}
		if err := arr.Write(bg, sh.data, full); err != nil {
			done()
			t.Fatalf("k=%d write: %v", k, err)
		}
		victim := arr.Map().LocateAll(0, 0, 0)[0].Device
		cl.Machine(victim).Server().Close()

		got := make([]float64, dom.Size())
		// Two reads pick the dead replica at least once.
		for i := 0; i < 2; i++ {
			err := arr.Read(bg, got, dom)
			if k == 1 {
				if !errors.Is(err, rmi.ErrMachineDown) {
					done()
					t.Fatalf("k=1 read with machine %d dead: %v, want ErrMachineDown", victim, err)
				}
				continue
			}
			if err != nil {
				done()
				t.Fatalf("k=2 read %d with machine %d dead: %v", i, victim, err)
			}
			sameBits(t, "k=2 fallback read", got, sh.read(dom))
		}
		done()
	}
}

// TestReadSeesWholePages races a reader against a writer that
// alternates two whole-page patterns on one page. Reads run outside
// the device mailbox, so this checks the per-page contract Read
// documents: every read of the page sees exactly one of the patterns.
func TestReadSeesWholePages(t *testing.T) {
	const N, n = 32, 16 // 32 KiB pages
	arr, done := buildArray(t, "roundrobin", 2, N, N, N, n, n, n)
	defer done()

	page := core.NewDomain(0, n, 0, n, 0, n)
	patterns := [2][]float64{make([]float64, page.Size()), make([]float64, page.Size())}
	for i := range patterns[0] {
		patterns[0][i] = float64(i)
		patterns[1][i] = -float64(i) - 1
	}
	if err := arr.Write(bg, patterns[0], page); err != nil {
		t.Fatalf("write: %v", err)
	}

	// Both sides run at least this many operations while the other is
	// still running.
	const rounds = 200
	var writes atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := arr.Write(bg, patterns[i%2], page); err != nil {
				werr = err
				return
			}
			writes.Add(1)
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
		if werr != nil {
			t.Errorf("writer: %v", werr)
		}
	}()
	seen := [2]int{}
	got := make([]float64, page.Size())
	for r := 0; r < rounds || writes.Load() < rounds; r++ {
		if err := arr.Read(bg, got, page); err != nil {
			t.Fatalf("read %d: %v", r, err)
		}
		which := 0
		if got[0] != patterns[0][0] {
			which = 1
		}
		for i := range got {
			if got[i] != patterns[which][i] {
				t.Fatalf("read %d: element %d = %v mixes the patterns (element 0 is pattern %d)", r, i, got[i], which)
			}
		}
		seen[which]++
	}
	t.Logf("reads per pattern %v, against %d writes", seen, writes.Load())
}

// readHeader bounds the bytes one region read adds beyond its payload:
// the request (lead byte, request id, object, method name, page index
// and box) and the reply (request id, status, value count).
const readHeader = 64

// TestReadShipsOnlyTheBox is the deterministic gate on read traffic:
// the frames and bytes a Read puts on the transport are the requested
// values plus a small fixed header per region, where shipping whole
// pages would cost a page per region.
func TestReadShipsOnlyTheBox(t *testing.T) {
	const N, n = 32, 16 // 8 pages of 32 KiB
	arr, done := buildArray(t, "roundrobin", 4, N, N, N, n, n, n)
	defer done()
	if err := arr.Fill(bg, core.Box(N, N, N), 1); err != nil {
		t.Fatalf("fill: %v", err)
	}
	for _, tc := range []struct {
		dom     core.Domain
		regions int
	}{
		{core.NewDomain(5, 6, 17, 18, 30, 31), 1},
		{core.NewDomain(8, 24, 8, 24, 8, 24), 8},
		{core.NewDomain(0, 32, 3, 5, 15, 17), 4},
	} {
		got := make([]float64, tc.dom.Size())
		before := metrics.Default.Snapshot()
		if err := arr.Read(bg, got, tc.dom); err != nil {
			t.Fatalf("read %v: %v", tc.dom, err)
		}
		d := metrics.Default.Snapshot().Sub(before)
		payload := int64(8 * tc.dom.Size())
		if d.MessagesSent != int64(2*tc.regions) {
			t.Errorf("%v: %d frames, want a request and a reply for each of %d regions", tc.dom, d.MessagesSent, tc.regions)
		}
		if limit := payload + int64(readHeader*tc.regions); d.BytesSent > limit {
			t.Errorf("%v: %d bytes on the transport for a %d-byte box over %d regions, limit %d",
				tc.dom, d.BytesSent, payload, tc.regions, limit)
		}
		for i, v := range got {
			if v != 1 {
				t.Fatalf("%v: element %d = %v", tc.dom, i, v)
			}
		}
	}
}

// BenchmarkArrayRead reports the client cost of one Read of a partial
// box (a 4×4×4 corner of each of 8 pages) and of whole pages, over an
// in-process cluster. B/op and allocs/op are the client-side figures the
// sub-box lane is meant to keep proportional to the box, not the page.
func BenchmarkArrayRead(b *testing.B) {
	const N, n = 32, 16
	arr, done := buildArray(b, "roundrobin", 4, N, N, N, n, n, n)
	defer done()
	if err := arr.Fill(bg, core.Box(N, N, N), 1); err != nil {
		b.Fatalf("fill: %v", err)
	}
	for _, bc := range []struct {
		name string
		dom  core.Domain
	}{
		{"partial", core.NewDomain(n-2, n+2, n-2, n+2, n-2, n+2)},
		{"full", core.Box(N, N, N)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			got := make([]float64, bc.dom.Size())
			b.ReportAllocs()
			b.SetBytes(int64(8 * bc.dom.Size()))
			for i := 0; i < b.N; i++ {
				if err := arr.Read(bg, got, bc.dom); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
