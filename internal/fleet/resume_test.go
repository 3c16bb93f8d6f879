package fleet

import (
	"context"
	"slices"
	"testing"

	"gauntlet/internal/core"
	"gauntlet/internal/persist"
)

func fingerprints(fs []core.Finding) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = f.Fingerprint
	}
	return out
}

// TestFleetResume: the coordinator owns the campaign's single journal and
// checkpoint, and a restarted coordinator — journal-seeded dedup plus the
// checkpoint's watermark and totals — must continue a partial
// campaign so the combined journal is byte-for-byte the single
// uninterrupted run, the final checkpoint counts the whole campaign, and
// at-least-once lease replay never re-reports a journaled fingerprint.
func TestFleetResume(t *testing.T) {
	run := testRun()
	run.Reduce = false
	const seeds, leaseSlots = 32, 8
	want := directRun(t, run, seeds)
	if len(want) == 0 {
		t.Fatal("no findings: the seeded defects should fire within 32 seeds")
	}
	dir := t.TempDir()

	// Phase 1: a campaign over the first half of the budget, then a
	// simulated coordinator death (the process just stops).
	st1, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := NewCoordinator(CoordinatorConfig{
		Run: run, Seeds: 16, LeaseSlots: leaseSlots, State: st1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), coord1, localWorkers(2)); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	// Phase 2: reopen the directory, resume to the full budget. Only
	// findings absent from the journal may be emitted.
	st2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	known, nrec, err := st2.KnownFindings()
	if err != nil {
		t.Fatal(err)
	}
	if nrec == 0 || nrec != len(coord1.Findings()) {
		t.Fatalf("journal has %d records, phase 1 released %d findings", nrec, len(coord1.Findings()))
	}
	cp, err := st2.LoadCheckpoint()
	if err != nil || cp == nil {
		t.Fatalf("checkpoint: %v (cp=%v)", err, cp)
	}
	if cp.NextSlot != 16 {
		t.Fatalf("checkpoint NextSlot = %d, want 16", cp.NextSlot)
	}
	var emitted []core.Finding
	coord2, err := NewCoordinator(CoordinatorConfig{
		Run: run, Seeds: seeds, LeaseSlots: leaseSlots, State: st2,
		KnownFindings: known, Resume: cp,
		OnFinding: func(f core.Finding) { emitted = append(emitted, f) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), coord2, localWorkers(2)); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	knownSet := make(map[uint64]bool, len(known))
	for _, fp := range known {
		knownSet[fp] = true
	}
	for _, f := range emitted {
		if knownSet[f.Fingerprint] {
			t.Errorf("resume re-reported journaled fingerprint %016x", f.Fingerprint)
		}
	}

	// The combined journal must be the uninterrupted run's finding
	// sequence, and the final checkpoint's totals the whole campaign's.
	st3, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := st3.KnownFindings()
	if err != nil {
		t.Fatal(err)
	}
	final, err := st3.LoadCheckpoint()
	st3.Close()
	if err != nil || final == nil {
		t.Fatalf("final checkpoint: %v (cp=%v)", err, final)
	}
	if got := final.Totals; got.Programs != seeds || got.Findings != uint64(len(want)) {
		t.Errorf("final checkpoint counts %d programs and %d findings, want the campaign's %d and %d",
			got.Programs, got.Findings, seeds, len(want))
	}
	if wantFPs := fingerprints(want); !slices.Equal(all, wantFPs) {
		t.Fatalf("journal holds findings %x, the uninterrupted run %x", all, wantFPs)
	}

	// Phase 3: replay absorption. Resume again from the phase-1 watermark
	// with the now-complete journal — leases 2 and 3 re-run whole
	// (at-least-once), and every finding they produce is already
	// journaled, so nothing may be emitted or appended.
	st4, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord3, err := NewCoordinator(CoordinatorConfig{
		Run: run, Seeds: seeds, LeaseSlots: leaseSlots, State: st4,
		KnownFindings: all, Resume: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), coord3, localWorkers(2)); err != nil {
		t.Fatal(err)
	}
	if got := coord3.Findings(); len(got) != 0 {
		t.Errorf("replayed leases re-reported %d journaled findings", len(got))
	}
	_, n4, err := st4.KnownFindings()
	st4.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n4 != len(all) {
		t.Errorf("replay grew the journal from %d to %d records", len(all), n4)
	}

	// Phase 4: a watermark at the end of the budget means nothing to do —
	// the coordinator is born complete.
	coord4, err := NewCoordinator(CoordinatorConfig{
		Run: run, Seeds: seeds, LeaseSlots: leaseSlots,
		KnownFindings: all, Resume: &persist.Checkpoint{NextSlot: seeds},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-coord4.Done():
	default:
		t.Error("coordinator resumed past the end is not Done")
	}
}
