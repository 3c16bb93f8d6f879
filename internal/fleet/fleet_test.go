package fleet

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"gauntlet/internal/core"
	"gauntlet/internal/corpus"
	"gauntlet/internal/obs"
	"gauntlet/internal/validate"
)

// testRun is the defect-seeded fleet campaign configuration the tests
// share: three registry bugs instrumented into the pipeline so findings
// fire within a few seeds (the same trio the engine's own determinism
// test uses).
func testRun() RunConfig {
	return RunConfig{
		Seed:                    11,
		Backend:                 "v1model",
		SyncInterval:            8,
		EngineWorkers:           2,
		Reduce:                  true,
		ReduceMaxRounds:         3,
		ReduceMaxPredicateCalls: 300,
		Defects:                 []string{"P4C-C-04", "P4C-C-13", "P4C-S-02"},
	}
}

// directRun is the single-process baseline: the same engine parameters
// as one lease spanning the whole budget.
func directRun(t *testing.T, run RunConfig, seeds int64) ([]core.Finding, *corpus.Corpus) {
	t.Helper()
	cfg, crp, err := engineConfigForLease(&run, Lease{ID: 0, Start: 0, Count: seeds}, validate.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(cfg)
	fs := e.Run(context.Background())
	return fs, crp
}

// findingKey renders every determinism-bearing field of a finding —
// witness bytes included — so slices compare order-sensitively.
func findingKey(f core.Finding) string {
	prov := ""
	if f.Provenance != nil {
		// Schedule fields only: wall-clock provenance varies run to run by
		// contract.
		prov = fmt.Sprintf("slot=%d round=%d origin=%s", f.Provenance.Slot, f.Provenance.Round, f.Provenance.Origin)
	}
	return fmt.Sprintf("%s|%d|%s|%s|%s|%016x|%s|%d|%d|%s|%s",
		f.Kind, f.Seed, f.Backend, f.Pass, f.Detail, f.Fingerprint, f.Origin,
		f.SizeBefore, f.SizeAfter, f.Source, prov)
}

func findingKeys(fs []core.Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = findingKey(f)
	}
	return out
}

func diffFindings(t *testing.T, label string, want, got []core.Finding) {
	t.Helper()
	w, g := findingKeys(want), findingKeys(got)
	if strings.Join(w, "\n") != strings.Join(g, "\n") {
		t.Errorf("%s: findings diverge\nwant (%d):\n  %s\ngot (%d):\n  %s",
			label, len(w), strings.Join(w, "\n  "), len(g), strings.Join(g, "\n  "))
	}
}

func localWorkers(n int) []WorkerConfig {
	ws := make([]WorkerConfig, n)
	for i := range ws {
		ws[i] = WorkerConfig{Name: fmt.Sprintf("w%d", i)}
	}
	return ws
}

// TestFleetInvariance: for a fixed seed budget, the coordinator+N-worker
// finding set, witness bytes, report order and merged corpus must be
// identical to the single-process engine run, for N ∈ {1, 2, 4} — the
// engine's worker-count invariance contract lifted across process
// boundaries (run under -race in CI).
func TestFleetInvariance(t *testing.T) {
	run := testRun()
	const seeds, leaseSlots = 48, 16
	want, wantCorpus := directRun(t, run, seeds)
	if len(want) == 0 {
		t.Fatal("no findings: the seeded defects should fire within 48 seeds")
	}
	wantFPs := wantCorpus.Fingerprints()
	wantStats := wantCorpus.Stats()
	for _, n := range []int{1, 2, 4} {
		coord, err := NewCoordinator(CoordinatorConfig{
			Run: run, Seeds: seeds, LeaseSlots: leaseSlots,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := RunLocal(context.Background(), coord, localWorkers(n)); err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		diffFindings(t, fmt.Sprintf("workers=%d", n), want, coord.Findings())
		gotFPs := coord.Corpus().Fingerprints()
		if fmt.Sprint(wantFPs) != fmt.Sprint(gotFPs) {
			t.Errorf("workers=%d: corpus seed fingerprints diverge:\nwant %v\ngot  %v", n, wantFPs, gotFPs)
		}
		gotStats := coord.Corpus().Stats()
		if wantStats.Seeds != gotStats.Seeds || wantStats.Admitted != gotStats.Admitted ||
			wantStats.Rejected != gotStats.Rejected || wantStats.Evicted != gotStats.Evicted ||
			wantStats.Edges != gotStats.Edges || wantStats.Fingerprints != gotStats.Fingerprints {
			t.Errorf("workers=%d: corpus stats diverge:\nwant %+v\ngot  %+v", n, wantStats, gotStats)
		}
	}
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
		Run: run, Seeds: 32, LeaseSlots: 16, Obs: reg, StallWindow: time.Minute,
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
	if st.Totals.Generated == 0 {
		t.Error("status totals report zero generated programs")
	}
	if err := coord.Health(); err != nil {
		t.Errorf("completed coordinator reports unhealthy: %v", err)
	}
}

// TestFleetStallHealth: a coordinator with outstanding leases and no
// releases inside the stall window must report unhealthy (the /healthz
// 503 contract).
func TestFleetStallHealth(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{
		Run: testRun(), Seeds: 32, LeaseSlots: 16, StallWindow: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := coord.Health(); err == nil {
		t.Fatal("stalled coordinator reports healthy")
	}
}
