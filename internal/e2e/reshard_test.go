package e2e

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oopp/internal/core"
	"oopp/internal/elastic"
	"oopp/internal/rmi"
)

// countPages tallies page copies per device in the array's current map.
func countPages(arr *core.Array) map[int]int {
	pm := arr.Map()
	P1, P2, P3 := arr.GridDims()
	pages := make(map[int]int)
	for p1 := 0; p1 < P1; p1++ {
		for p2 := 0; p2 < P2; p2++ {
			for p3 := 0; p3 < P3; p3++ {
				for _, addr := range pm.LocateAll(p1, p2, p3) {
					pages[addr.Device]++
				}
			}
		}
	}
	return pages
}

// TestReshardUnderLoadOverTCP is the elastic cluster's acceptance run
// against real server processes: while client goroutines continuously
// write, run owner-computes kernels, and reduce over a replicated
// array, pages migrate between machines (explicit plans, a full
// machine drain, and a rebalance). Not one client call may fail — the
// write fence parks and replays them — and the final contents must be
// bitwise identical to what the workers maintained.
func TestReshardUnderLoadOverTCP(t *testing.T) {
	cl := StartCluster(t, 4)
	ctx := testCtx(t)

	const N, n = 8, 2
	grid := N / n
	base, err := core.NewRoundRobinMap(grid, grid, grid, 4)
	if err != nil {
		t.Fatalf("pagemap: %v", err)
	}
	pm, err := core.NewReplicatedMap(base, 2)
	if err != nil {
		t.Fatalf("replicate: %v", err)
	}
	storage, err := core.CreateBlockStorage(ctx, cl.Client, []int{0, 1, 2, 3}, "e2ereshard",
		pm.PagesPerDevice()+16, n, n, n, 0)
	if err != nil {
		t.Fatalf("create storage: %v", err)
	}
	arr, err := core.NewArray(ctx, storage, pm, N, N, N, n, n, n)
	if err != nil {
		t.Fatalf("array: %v", err)
	}

	// Invariant state: low slab 3s (rewritten by the write worker), high
	// slab 5s (rewritten by the kernel worker) — any sum but wantSum
	// means a migration window lost, tore, or double-applied data.
	low := core.NewDomain(0, N/2, 0, N, 0, N)
	high := core.NewDomain(N/2, N, 0, N, 0, N)
	wantSum := float64(low.Size())*3 + float64(high.Size())*5
	slab := make([]float64, low.Size())
	for i := range slab {
		slab[i] = 3
	}
	if err := arr.Write(ctx, slab, low); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	if err := arr.Fill(ctx, high, 5); err != nil {
		t.Fatalf("seed fill: %v", err)
	}

	var failed atomic.Value
	var calls atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(op func() error, name string) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := op(); err != nil {
				failed.Store(fmt.Errorf("%s: %w", name, err))
				return
			}
			calls.Add(1)
		}
	}
	wg.Add(3)
	go worker(func() error { return arr.Write(ctx, slab, low) }, "write")
	go worker(func() error { return arr.Fill(ctx, high, 5) }, "fill")
	go worker(func() error {
		s, err := arr.Sum(ctx, arr.Bounds())
		if err == nil && s != wantSum {
			return fmt.Errorf("sum = %v, want %v", s, wantSum)
		}
		return err
	}, "sum")

	stop := func(format string, args ...any) {
		close(done)
		wg.Wait()
		t.Fatalf(format, args...)
	}
	// Phase 1: explicit migrations cycle pages between machines.
	for round := 0; round < 4; round++ {
		from, to := round%4, (round+1)%4
		if _, err := arr.MigratePages(ctx, []elastic.Move{{From: from, To: to, Pages: 4}}); err != nil {
			stop("migration round %d: %v", round, err)
		}
	}
	// Phase 2: drain machine 3 completely, still under load.
	if _, err := arr.DrainMachine(ctx, 3); err != nil {
		stop("drain under load: %v", err)
	}
	if pages := countPages(arr); pages[3] != 0 {
		stop("machine 3 still holds %d pages after drain", pages[3])
	}
	// Phase 3: rebalance flows pages back onto the drained machine.
	rrep, err := arr.Rebalance(ctx, core.RebalanceConfig{})
	if err != nil {
		stop("rebalance under load: %v", err)
	}
	if rrep.Skipped != 0 || rrep.Moved == 0 {
		stop("rebalance moved %d skipped %d", rrep.Moved, rrep.Skipped)
	}

	close(done)
	wg.Wait()
	if err := failed.Load(); err != nil {
		t.Fatalf("client call failed during live resharding: %v", err)
	}
	if calls.Load() == 0 {
		t.Fatal("workers recorded no completed calls — the load was not live")
	}

	// The moved pages really changed homes, and the data is bitwise what
	// the workers maintained.
	if pages := countPages(arr); pages[3] == 0 {
		t.Fatalf("rebalance left machine 3 empty: %v", pages)
	}
	got := make([]float64, N*N*N)
	if err := arr.Read(ctx, got, arr.Bounds()); err != nil {
		t.Fatalf("final read: %v", err)
	}
	for i, v := range got {
		want := 3.0
		if i >= len(got)/2 {
			want = 5.0
		}
		if v != want {
			t.Fatalf("element %d = %v, want %v after resharding", i, v, want)
		}
	}
	if err := storage.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestDrainPagesThenKillMachineOverTCP is the planned-decommission
// chaos drill: migrate every page off a machine, then SIGKILL its
// process. Because the drain emptied it first, the kill costs nothing —
// every read and write keeps succeeding at full replica count, and the
// contents stay bitwise identical. (Contrast with the failover suite,
// where the kill lands on a machine still holding pages.)
func TestDrainPagesThenKillMachineOverTCP(t *testing.T) {
	cl := StartCluster(t, 3)
	ctx := testCtx(t)

	const N, n = 8, 2
	grid := N / n
	base, err := core.NewRoundRobinMap(grid, grid, grid, 3)
	if err != nil {
		t.Fatalf("pagemap: %v", err)
	}
	pm, err := core.NewReplicatedMap(base, 2)
	if err != nil {
		t.Fatalf("replicate: %v", err)
	}
	storage, err := core.CreateBlockStorage(ctx, cl.Client, []int{0, 1, 2}, "e2edecom",
		pm.PagesPerDevice()+24, n, n, n, 0)
	if err != nil {
		t.Fatalf("create storage: %v", err)
	}
	arr, err := core.NewArray(ctx, storage, pm, N, N, N, n, n, n)
	if err != nil {
		t.Fatalf("array: %v", err)
	}

	full := arr.Bounds()
	src := make([]float64, full.Size())
	for i := range src {
		src[i] = float64(i%617) * 0.25
	}
	if err := arr.Write(ctx, src, full); err != nil {
		t.Fatalf("write: %v", err)
	}

	rep, err := arr.DrainMachine(ctx, 2)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Moved == 0 {
		t.Fatal("drain moved nothing")
	}
	if pages := countPages(arr); pages[2] != 0 {
		t.Fatalf("machine 2 still holds %d pages", pages[2])
	}

	// The machine is empty: killing it is free.
	hb := cl.Client.StartHeartbeat(rmi.HeartbeatConfig{
		Interval: 50 * time.Millisecond,
		Timeout:  time.Second,
		Misses:   2,
	})
	defer hb.Stop()
	cl.Kill(2)
	deadline := time.Now().Add(30 * time.Second)
	for len(hb.Down()) == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}

	// Full service at full replica count: reads are exact, writes hit
	// every replica (nothing tolerated), the sum is exact.
	got := make([]float64, full.Size())
	if err := arr.Read(ctx, got, full); err != nil {
		t.Fatalf("read after kill: %v", err)
	}
	if !reflect.DeepEqual(got, src) {
		t.Fatal("decommissioned kill lost data")
	}
	before := arr.DegradedWrites()
	for i := range src {
		src[i] += 1
	}
	if err := arr.Write(ctx, src, full); err != nil {
		t.Fatalf("write after kill: %v", err)
	}
	if arr.DegradedWrites() != before {
		t.Fatal("write after a drained kill should not degrade")
	}
	wantSum := 0.0
	for _, v := range src {
		wantSum += v
	}
	if sum, err := arr.Sum(ctx, full); err != nil || !close64(sum, wantSum) {
		t.Fatalf("sum after kill = %v, %v; want %v", sum, err, wantSum)
	}
}
