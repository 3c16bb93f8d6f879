package fleet

import (
	"context"
	"testing"
	"time"

	"gauntlet/internal/core"
	"gauntlet/internal/faultinject"
)

// TestFleetChaos: injected link faults — sever, drop+sever, delay past
// the lease timeout — must be fully absorbed by lease re-issue: the
// campaign completes, the finding stream is byte-identical to the clean
// single-process baseline, and no finding is ever emitted twice.
func TestFleetChaos(t *testing.T) {
	run := testRun()
	run.Reduce = false
	const seeds, leaseSlots = 32, 8
	want, _ := directRun(t, run, seeds)
	if len(want) == 0 {
		t.Fatal("no findings: the seeded defects should fire within 32 seeds")
	}

	cases := []struct {
		name string
		plan *faultinject.LinkPlan
		// leaseTimeout, when set, is short enough for the injected delay
		// to force expiry (the duplicate-result path).
		leaseTimeout time.Duration
	}{
		// Worker w0 severs its link after every lease it completes, so its
		// results never arrive and its held leases re-issue to w1.
		{name: "sever", plan: &faultinject.LinkPlan{Seed: 7, SeverEvery: 1}},
		// w0 swallows the result frame, then severs — the kill -9 shape:
		// work done, nothing shipped, connection gone.
		{name: "drop-sever", plan: &faultinject.LinkPlan{Seed: 7, DropEvery: 1, SeverEvery: 1}},
		// w0 stalls every result past the lease timeout: the lease expires
		// and re-issues while the stale result is still in flight, so the
		// coordinator must drop the loser of the race.
		{name: "delay", plan: &faultinject.LinkPlan{Seed: 7, DelayEvery: 1, DelayFor: 2500 * time.Millisecond}, leaseTimeout: time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var emitted []core.Finding // appended under the coordinator's release lock
			coord, err := NewCoordinator(CoordinatorConfig{
				Run: run, Seeds: seeds, LeaseSlots: leaseSlots,
				LeaseTimeout: tc.leaseTimeout,
				OnFinding:    func(f core.Finding) { emitted = append(emitted, f) },
			})
			if err != nil {
				t.Fatal(err)
			}
			workers := []WorkerConfig{
				{Name: "w0", LinkFault: tc.plan.Hook()},
				{Name: "w1"},
			}
			if err := RunLocal(context.Background(), coord, workers); err != nil {
				t.Fatal(err)
			}
			if !sameStream(want, coord.Findings()) {
				t.Errorf("finding stream differs from the single process: %x, want %x",
					fingerprints(coord.Findings()), fingerprints(want))
			}
			if len(emitted) != len(want) {
				t.Errorf("emitted %d findings, want %d", len(emitted), len(want))
			}
			seen := make(map[uint64]bool, len(emitted))
			for _, f := range emitted {
				if seen[f.Fingerprint] {
					t.Errorf("fingerprint %016x emitted twice", f.Fingerprint)
				}
				seen[f.Fingerprint] = true
			}
			if st := coord.Status(); st.LeasesReissued == 0 {
				t.Error("no lease was re-issued despite injected faults")
			}
			drops, severs, delays := tc.plan.FiredLink()
			if drops+severs+delays == 0 {
				t.Error("no planned link fault fired")
			}
		})
	}
}
