package core_test

import (
	"math"
	"slices"
	"testing"

	"oopp/internal/core"
	"oopp/internal/elastic"
	"oopp/internal/persist"
)

// Reopening an array must find its data where it lives *now*: after a
// migration or a failover the placement table no longer matches any
// layout formula, so the persisted descriptor has to carry the table.
// Each test below changes the map, writes fresh data through the new
// table, reopens the array, and demands the fresh data back bit for bit
// with the reopened map's chains equal to the live map's.

// checkReopened reads the whole reopened array and compares it bitwise
// against want, then compares every page's replica chain against the
// live array's map.
func checkReopened(t *testing.T, live, reopened *core.Array, want []float64) {
	t.Helper()
	got := make([]float64, len(want))
	if err := reopened.Read(bg, got, reopened.Bounds()); err != nil {
		t.Fatalf("reopened read: %v", err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("reopened element %d = %v, want %v", i, got[i], want[i])
		}
	}
	lm, rm := live.Map(), reopened.Map()
	if rm.Name() != lm.Name() || rm.Replicas() != lm.Replicas() || rm.PagesPerDevice() != lm.PagesPerDevice() {
		t.Fatalf("reopened map %q k=%d ppd=%d, live %q k=%d ppd=%d",
			rm.Name(), rm.Replicas(), rm.PagesPerDevice(), lm.Name(), lm.Replicas(), lm.PagesPerDevice())
	}
	P1, P2, P3 := live.GridDims()
	for p1 := 0; p1 < P1; p1++ {
		for p2 := 0; p2 < P2; p2++ {
			for p3 := 0; p3 < P3; p3++ {
				if a, b := rm.LocateAll(p1, p2, p3), lm.LocateAll(p1, p2, p3); !slices.Equal(a, b) {
					t.Fatalf("page (%d,%d,%d): reopened chain %v, live chain %v", p1, p2, p3, a, b)
				}
			}
		}
	}
}

// migrateThenRewrite builds a 3-device striped k=1 array, moves two pages
// off device 0, and overwrites the whole array through the new table.
func migrateThenRewrite(t *testing.T) (*core.Array, []float64, func()) {
	t.Helper()
	_, arr, stop := buildReplicated(t, "striped", 3, 1, 4, 4, 4, 2, 2, 2, 4)
	fillPattern(t, arr, 1000)
	if rep, err := arr.MigratePages(bg, []elastic.Move{{From: 0, To: 2, Pages: 2}}); err != nil || rep.Moved != 2 {
		stop()
		t.Fatalf("MigratePages: %+v, %v", rep, err)
	}
	return arr, fillPattern(t, arr, 7000), stop
}

func TestReopenAfterMigrateCheckpointRecover(t *testing.T) {
	arr, want, stop := migrateThenRewrite(t)
	defer stop()
	store, err := persist.NewStore(bg, arr.Storage().Client(), 0)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	if err := core.CheckpointArray(bg, arr, store, "mig/ck"); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	rec, err := core.RecoverArray(bg, arr.Storage().Client(), store, "mig/ck")
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	checkReopened(t, arr, rec, want)
}

func TestReopenAfterMigratePublishOpen(t *testing.T) {
	arr, want, stop := migrateThenRewrite(t)
	defer stop()
	client := arr.Storage().Client()
	mgr, err := persist.NewManager(bg, client, 0, []int{0, 1, 2})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	defer mgr.Close(bg)
	base := persist.MustParseAddress("oop://data/migrated")
	if err := core.PublishArray(bg, mgr, client, 0, base, arr); err != nil {
		t.Fatalf("publish: %v", err)
	}
	reopened, err := core.OpenArray(bg, mgr, client, base)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	checkReopened(t, arr, reopened, want)
}

// TestReopenAfterFailoverCheckpointRecover declares machine 1 dead
// without stopping it: the re-minted table drops its device, and the
// checkpoint can still snapshot every device — including the stale
// copies the table no longer addresses, which a reopen must not read.
func TestReopenAfterFailoverCheckpointRecover(t *testing.T) {
	const N, n = 8, 4
	_, arr, stop := buildReplicated(t, "roundrobin", 4, 2, N, N, N, n, n, n, 8)
	defer stop()
	fillPattern(t, arr, 1000)
	rep, err := arr.Failover(bg, 1)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if rep.Reseeded == 0 || len(rep.Lost) != 0 {
		t.Fatalf("failover report %+v, want re-seeds and no loss", rep)
	}
	want := fillPattern(t, arr, 9000)

	store, err := persist.NewStore(bg, arr.Storage().Client(), 0)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	if err := core.CheckpointArray(bg, arr, store, "fo/ck"); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	rec, err := core.RecoverArray(bg, arr.Storage().Client(), store, "fo/ck")
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	checkReopened(t, arr, rec, want)
}
