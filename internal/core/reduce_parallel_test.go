package core_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"gauntlet/internal/core"
)

// TestEngineReduceSpeculationStats: under parallel reduction of crash
// and miscompilation witnesses the engine must account speculation —
// serial-equivalent calls bounded by the per-finding budget, launches at
// least as many as serial calls, and the wasted count consistent with
// both.
func TestEngineReduceSpeculationStats(t *testing.T) {
	cfg := buggyEngineConfig(t, 12, 4, "P4C-C-17", "P4C-S-02")
	cfg.ReduceOpts.Parallelism = 8
	e := core.NewEngine(cfg)
	fs := e.Run(context.Background())
	if len(fs) == 0 {
		t.Fatal("no findings to reduce")
	}
	s := e.Stats()
	if s.Compiled == 0 || s.Miscompilations == 0 {
		t.Errorf("%d programs compiled, %d miscompiled: no semantic witness to reduce", s.Compiled, s.Miscompilations)
	}
	if s.ReduceSerialCalls == 0 {
		t.Error("reduction ran but ReduceSerialCalls is 0")
	}
	if s.ReduceProbesLaunched < s.ReduceSerialCalls {
		t.Errorf("launched %d probes < %d serial-equivalent calls", s.ReduceProbesLaunched, s.ReduceSerialCalls)
	}
	if s.ReduceProbesWasted > s.ReduceProbesLaunched-s.ReduceSerialCalls {
		t.Errorf("wasted %d > launched-serial %d", s.ReduceProbesWasted, s.ReduceProbesLaunched-s.ReduceSerialCalls)
	}
}

// TestEngineOracleEnergyDeterminism: oracle-stage findings on mutants
// feed corpus energy at the next fold, which waits for every mutant
// verdict of the round before it and for no fresh one. The whole run
// (finding set, corpus, bump count) must stay a pure function of the
// master seed at any worker count, and runs whose seed budget is not a
// multiple of SyncInterval must still drain (the tail round's verdicts
// bump nothing, since no fold follows, and are never waited on past
// the final fold; their candidates are still released).
func TestEngineOracleEnergyDeterminism(t *testing.T) {
	run := func(workers int) ([]string, []uint64, uint64, uint64) {
		cfg := buggyEngineConfig(t, 30, workers, "P4C-S-02") // semantic: findings surface at the oracle stage
		cfg.Seed = 7
		cfg.MutateRatio = 0.7
		cfg.SyncInterval = 8 // 30 seeds: a partial tail round
		e := core.NewEngine(cfg)
		fs := e.Run(context.Background())
		st := e.Stats()
		return fingerprintSet(fs), e.Corpus().Fingerprints(), st.Corpus.Bumps, st.Miscompilations
	}
	f1, c1, b1, m1 := run(1)
	f8, c8, b8, m8 := run(8)
	if m1 == 0 {
		t.Fatal("no oracle-stage findings: the seeded semantic defect should fire within 30 seeds")
	}
	if strings.Join(f1, "\n") != strings.Join(f8, "\n") {
		t.Errorf("finding set differs across worker counts with oracle energy enabled:\nw1:\n  %s\nw8:\n  %s",
			strings.Join(f1, "\n  "), strings.Join(f8, "\n  "))
	}
	if !slices.Equal(c1, c8) {
		t.Fatalf("corpus fingerprints differ across worker counts: %x vs %x", c1, c8)
	}
	if b1 != b8 {
		t.Errorf("energy bumps differ across worker counts: %d vs %d", b1, b8)
	}
	if m1 != m8 {
		t.Errorf("miscompilation count differs across worker counts: %d vs %d", m1, m8)
	}
}
