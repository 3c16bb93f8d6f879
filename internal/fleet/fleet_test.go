package fleet

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gauntlet/internal/core"
	"gauntlet/internal/corpus"
	"gauntlet/internal/obs"
	"gauntlet/internal/smt"
)

// testRun is the defect-seeded fleet campaign configuration the tests
// share: two crash defects that fire on some programs and a semantic one
// that miscompiles most of the rest, so findings come from both the
// compile stage and the oracle within a few seeds.
func testRun() RunConfig {
	return RunConfig{
		Seed:          11,
		Backend:       "v1model",
		SyncInterval:  8,
		EngineWorkers: 2,
		Reduce:        true,
		Defects:       []string{"P4C-C-17", "P4C-C-13", "P4C-S-02"},
	}
}

// directRun is the single-process baseline: the same engine parameters
// as one lease spanning the whole budget. It fails unless the oracle
// found a miscompilation.
func directRun(t *testing.T, run RunConfig, seeds int64) ([]core.Finding, *corpus.Corpus) {
	t.Helper()
	cfg, crp, err := engineConfigForLease(&run, Lease{ID: 0, Start: 0, Count: seeds})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(cfg)
	fs := e.Run(context.Background())
	if e.Stats().Miscompilations == 0 {
		t.Fatal("no miscompilation: the oracle found nothing within the budget")
	}
	return fs, crp
}

// sameStream reports whether two finding streams carry the same
// fingerprints and witness bytes in the same order.
func sameStream(a, b []core.Finding) bool {
	return slices.EqualFunc(a, b, func(x, y core.Finding) bool {
		return x.Fingerprint == y.Fingerprint && x.Source == y.Source
	})
}

func localWorkers(n int) []WorkerConfig {
	ws := make([]WorkerConfig, n)
	for i := range ws {
		ws[i] = WorkerConfig{Name: fmt.Sprintf("w%d", i)}
	}
	return ws
}

// TestFleetLeaseAlignment: a lease length that does not divide into
// whole admission rounds would break the canonical release order, so the
// coordinator must refuse it outright.
func TestFleetLeaseAlignment(t *testing.T) {
	run := testRun() // SyncInterval 8
	if _, err := NewCoordinator(CoordinatorConfig{Run: run, Seeds: 32, LeaseSlots: 12}); err == nil {
		t.Fatal("coordinator accepted lease slots 12 with sync interval 8")
	}
	if _, err := NewCoordinator(CoordinatorConfig{Run: run}); err == nil {
		t.Fatal("coordinator accepted an unbounded seed budget")
	}
}

// TestFleetObs: the fleet metrics and admin hooks must surface — workers
// gauge, lease gauges, per-worker lease-latency histogram, a /statusz
// section with the released-lease counts, and a healthy Health() after
// completion.
func TestFleetObs(t *testing.T) {
	run := testRun()
	run.Reduce = false
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{
		Run: run, Seeds: 32, LeaseSlots: 16, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), coord, localWorkers(2)); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"gauntlet_fleet_workers",
		"gauntlet_fleet_leases_inflight",
		"gauntlet_fleet_leases_released_total 2",
		"# TYPE gauntlet_fleet_lease_latency_seconds histogram",
		`gauntlet_fleet_lease_latency_seconds_count{worker="w`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics is missing %q:\n%s", want, text)
		}
	}
	st := coord.Status()
	if st.LeasesTotal != 2 || st.LeasesReleased != 2 || st.WatermarkSlot != 32 {
		t.Errorf("status = %+v, want 2/2 leases released, watermark 32", st)
	}
	if st.Totals.Generated == 0 || st.Totals.Miscompilations == 0 {
		t.Errorf("status totals report %d generated programs, %d miscompiled", st.Totals.Generated, st.Totals.Miscompilations)
	}
	if err := coord.Health(); err != nil {
		t.Errorf("completed coordinator reports unhealthy: %v", err)
	}
}

// TestFleetWorkerKeepsDefaultContextClean: a worker's memory is bounded
// by its lease. Each lease's engine builds its terms in a context of its
// own, which dies with the lease, so a worker that runs many leases
// leaves nothing behind in the immortal default context.
func TestFleetWorkerKeepsDefaultContextClean(t *testing.T) {
	run := testRun()
	run.Reduce = false
	coord, err := NewCoordinator(CoordinatorConfig{Run: run, Seeds: 128, LeaseSlots: 32})
	if err != nil {
		t.Fatal(err)
	}
	before := smt.InternerStats().Entries
	if err := RunLocal(context.Background(), coord, localWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if st := coord.Status(); st.LeasesReleased != 4 || st.Totals.Miscompilations == 0 {
		t.Fatalf("status = %+v, want 4 leases released and a miscompilation", st)
	}
	if after := smt.InternerStats().Entries; after != before {
		t.Errorf("one worker over 4 leases interned %d terms into the immortal default context", after-before)
	}
}

// TestFleetStallHealth: the /healthz stall window is 5/2 of the lease
// timeout, so a coordinator with outstanding leases reports healthy while
// a lease may still be running within its timeout, and unhealthy once no
// lease has released for the window (the /healthz 503 contract).
func TestFleetStallHealth(t *testing.T) {
	const leaseTimeout = 40 * time.Millisecond // a 100 ms window
	start := time.Now()
	coord, err := NewCoordinator(CoordinatorConfig{
		Run: testRun(), Seeds: 32, LeaseSlots: 16, LeaseTimeout: leaseTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	made := time.Now()
	time.Sleep(time.Until(start.Add(60 * time.Millisecond)))
	// Only a probe that returned inside the window is held to healthy: a
	// loaded machine may oversleep.
	if err := coord.Health(); err != nil && time.Since(start) < 5*leaseTimeout/2 {
		t.Fatalf("coordinator reports unhealthy inside the stall window: %v", err)
	}
	time.Sleep(time.Until(made.Add(150 * time.Millisecond)))
	if err := coord.Health(); err == nil {
		t.Fatal("stalled coordinator reports healthy 150 ms after start")
	}
}
