package core_test

import (
	"context"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gauntlet/internal/core"
	"gauntlet/internal/corpus"
	"gauntlet/internal/faultinject"
	"gauntlet/internal/persist"
)

// chaosPlan builds an injection plan over every supervised stage with all
// three fault kinds in the mix. Stalls sleep far past the stage budget so
// the supervisor must abandon them; they unwind via context at drain.
func chaosPlan(seed int64, every int64) *faultinject.Plan {
	spec := faultinject.Spec{Every: every, StallFor: 10 * time.Minute}
	return &faultinject.Plan{
		Seed: seed,
		Stages: map[string]faultinject.Spec{
			"generate": spec,
			"compile":  spec,
			"oracle":   spec,
			"reduce":   spec,
		},
	}
}

// TestChaosContainment: with panics, stalls and errors injected at every
// stage — and epoch rotation running underneath — the run must complete
// with zero process deaths, every fired panic and stall accounted for as
// exactly one quarantine record, every fired error as a tool-limitation
// count, and no goroutine leaks once the drain unwinds abandoned stalls.
// The defects let programs through to the oracle, so its faults fire
// too. Run under -race in CI.
func TestChaosContainment(t *testing.T) {
	before := runtime.NumGoroutine()
	plan := chaosPlan(7, 5)
	cfg := buggyEngineConfig(t, 48, 4, "P4C-C-17", "P4C-S-02")
	cfg.EpochPrograms = 16
	cfg.SyncInterval = 8
	cfg.Cache = nil
	// Far above any natural stage duration (even under -race slowdown, so
	// the exact fired==quarantined accounting below can't pick up stray
	// genuine stalls), far below the injected 10-minute ones.
	cfg.StageTimeout = 3 * time.Second
	cfg.OracleTimeout = 5 * time.Second
	cfg.FaultHook = plan.Hook()
	var mu sync.Mutex
	var records []core.QuarantineRecord
	cfg.OnQuarantine = func(rec core.QuarantineRecord) {
		mu.Lock()
		records = append(records, rec)
		mu.Unlock()
	}
	e := core.NewEngine(cfg)
	e.Run(context.Background())
	s := e.Stats()
	panics, stalls, errors := plan.Fired()

	if panics == 0 || stalls == 0 || errors == 0 {
		t.Fatalf("plan too sparse: fired %d panics, %d stalls, %d errors — want all kinds", panics, stalls, errors)
	}
	if s.Generated != 48 {
		t.Errorf("generated %d, want 48 (a fault must cost one unit, never a slot)", s.Generated)
	}
	if s.Compiled == 0 {
		t.Error("no program compiled: the oracle stage never ran")
	}
	// Every fired panic and stall is exactly one quarantine record; the
	// errors took the tool-limitation path instead.
	if s.Quarantined != panics+stalls {
		t.Errorf("quarantined = %d, want fired panics+stalls = %d", s.Quarantined, panics+stalls)
	}
	if s.Stalls != stalls {
		t.Errorf("stall count = %d, want %d", s.Stalls, stalls)
	}
	mu.Lock()
	nrec := len(records)
	byKind, byStage := map[string]uint64{}, map[string]uint64{}
	for _, r := range records {
		byKind[r.Kind]++
		byStage[r.Stage]++
	}
	mu.Unlock()
	if byStage["oracle"] == 0 {
		t.Errorf("no oracle-stage quarantine record among %v", byStage)
	}
	if uint64(nrec) != s.Quarantined {
		t.Errorf("quarantine records = %d, stats say %d", nrec, s.Quarantined)
	}
	if byKind["panic"] != panics || byKind["stall"] != stalls {
		t.Errorf("records by kind = %v, want %d panics / %d stalls", byKind, panics, stalls)
	}
	if s.CompileErrors+s.OracleErrors < errors {
		t.Errorf("tool errors = %d+%d, want at least fired errors %d",
			s.CompileErrors, s.OracleErrors, errors)
	}

	// Abandoned stall goroutines unwind when Run's context is cancelled
	// at return; poll like TestEngineCancellation.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after chaos run: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestResumeNoDuplicateFindings: kill a campaign partway, resume from its
// durable state, and the union of the two incarnations' findings must
// equal an uninterrupted run's — with zero re-reports, even though the
// slots between the last checkpoint's watermark and the death are
// reprocessed (at-least-once semantics, deduplicated by the journal's
// fingerprints). Run under -race in CI.
func TestResumeNoDuplicateFindings(t *testing.T) {
	const total, killAt = 40, 20
	ids := []string{"P4C-C-04", "P4C-C-13"}
	base := func(start, n int64) core.EngineConfig {
		cfg := buggyEngineConfig(t, n, 4, ids...)
		cfg.StartSeed = start
		cfg.Reduce = false
		cfg.SyncInterval = 8
		return cfg
	}

	full := fingerprintSet(core.NewEngine(base(0, total)).Run(context.Background()))
	if len(full) == 0 {
		t.Fatal("uninterrupted run found nothing")
	}

	dir := t.TempDir()
	st, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Incarnation one: journal every finding, checkpoint every 8 folded
	// programs, die (run out of slots) at killAt.
	cfg1 := base(0, killAt)
	cfg1.CheckpointPrograms = 8
	var e1 *core.Engine
	cfg1.OnFinding = func(f core.Finding) {
		if err := st.AppendFinding(f); err != nil {
			t.Errorf("journal: %v", err)
		}
	}
	cfg1.OnCheckpoint = func(next int64) {
		if next >= killAt {
			// Simulate SIGKILL: the process died before the engine's
			// shutdown checkpoint could be written, so resume must fall
			// back to the last periodic one and reprocess the gap.
			return
		}
		err := st.SaveCheckpoint(&persist.Checkpoint{
			NextSlot: next, Seed: cfg1.Seed, Corpus: e1.Corpus().Snapshot(),
		})
		if err != nil {
			t.Errorf("checkpoint: %v", err)
		}
	}
	e1 = core.NewEngine(cfg1)
	run1 := fingerprintSet(e1.Run(context.Background()))

	// Recover: the checkpoint's watermark trails the death (the last
	// fold at 20 was under the cadence), so resume reprocesses slots
	// [watermark, killAt) the journal already covers.
	cp, err := st.LoadCheckpoint()
	if err != nil || cp == nil {
		t.Fatalf("no checkpoint after incarnation one: %v", err)
	}
	if cp.NextSlot <= 0 || cp.NextSlot >= killAt {
		t.Fatalf("watermark %d not strictly inside (0, %d) — the reprocessing path would be untested", cp.NextSlot, killAt)
	}
	known, nrec, err := st.KnownFindings()
	if err != nil {
		t.Fatal(err)
	}
	if nrec != len(run1) {
		t.Fatalf("journal has %d records, incarnation one reported %d", nrec, len(run1))
	}
	restored, err := corpus.FromSnapshot(cp.Corpus)
	if err != nil {
		t.Fatal(err)
	}

	// Incarnation two: resume from the watermark with the journal's
	// fingerprints pre-seeding dedup.
	cfg2 := base(cp.NextSlot, total-cp.NextSlot)
	cfg2.Corpus = restored
	cfg2.KnownFindings = known
	var run2 []core.Finding
	cfg2.OnFinding = func(f core.Finding) { run2 = append(run2, f) }
	e2 := core.NewEngine(cfg2)
	e2.Run(context.Background())

	seen := map[string]bool{}
	for _, fp := range run1 {
		seen[fp] = true
	}
	for _, fp := range fingerprintSet(run2) {
		if seen[fp] {
			t.Errorf("finding re-reported after resume: %s", fp)
		}
		seen[fp] = true
	}
	if a, b := strings.Join(slices.Sorted(maps.Keys(seen)), "\n"), strings.Join(full, "\n"); a != b {
		t.Errorf("resumed union differs from uninterrupted run:\nunion:\n  %s\nfull:\n  %s",
			strings.ReplaceAll(a, "\n", "\n  "), strings.ReplaceAll(b, "\n", "\n  "))
	}
}
