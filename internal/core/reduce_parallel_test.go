package core_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"gauntlet/internal/core"
)

// sortedSources returns each finding's printed reduced witness, sorted —
// the byte-identity observable across reduction parallelism levels
// (fingerprints alone could mask a source-level divergence).
func sortedSources(fs []core.Finding) []string {
	out := make([]string, 0, len(fs))
	for _, f := range fs {
		out = append(out, f.Source)
	}
	sort.Strings(out)
	return out
}

// TestEngineReduceParallelismDeterminism is the tentpole acceptance test
// at the engine level: for a fixed seed budget, the reduced-witness set —
// the printed sources, byte for byte, not just the fingerprints — is
// identical across reduction parallelism 1/4/8 and engine worker counts
// 1/8. The speculative executor commits in canonical candidate order and
// budgets count serial-equivalent calls only, so speculation must be
// invisible in everything but wall-clock. The capped row runs a hot
// semantic defect far above MaxReducePerPass: the cap drops most
// candidates, and which ones it keeps must not depend on the worker
// count either, because dedup sees candidates in canonical (round, slot)
// order. Run under -race in CI.
func TestEngineReduceParallelismDeterminism(t *testing.T) {
	rows := []struct {
		name         string
		ids          []string
		seeds        int64
		syncInterval int
		maxPerPass   int // 0 = engine default
		workers      []int
		pars         []int
	}{
		{"under-cap", []string{"P4C-C-04", "P4C-C-13", "P4C-S-02"}, 18, 0, 0, []int{1, 8}, []int{1, 4, 8}},
		{"capped", []string{"P4C-S-02"}, 48, 8, 2, []int{1, 4}, []int{1, 4}},
	}
	for _, row := range rows {
		run := func(workers, par int) ([]string, []string, core.Stats) {
			cfg := buggyEngineConfig(t, row.seeds, workers, row.ids...)
			cfg.ReduceOpts.Parallelism = par
			cfg.SyncInterval = row.syncInterval
			cfg.MaxReducePerPass = row.maxPerPass
			e := core.NewEngine(cfg)
			fs := e.Run(context.Background())
			return fingerprintSet(fs), sortedSources(fs), e.Stats()
		}
		refFP, refSrc, refStats := run(row.workers[0], row.pars[0])
		if len(refFP) == 0 {
			t.Fatalf("%s: no findings: the seeded defects should fire within %d seeds", row.name, row.seeds)
		}
		if row.maxPerPass > 0 && refStats.Miscompilations <= uint64(row.maxPerPass) {
			t.Fatalf("%s: %d miscompilations never exceed the cap of %d", row.name, refStats.Miscompilations, row.maxPerPass)
		}
		for _, workers := range row.workers {
			for _, par := range row.pars {
				if workers == row.workers[0] && par == row.pars[0] {
					continue
				}
				fp, src, _ := run(workers, par)
				if strings.Join(fp, "\n") != strings.Join(refFP, "\n") {
					t.Errorf("%s: finding set differs at workers=%d parallelism=%d:\nref:\n  %s\ngot:\n  %s",
						row.name, workers, par, strings.Join(refFP, "\n  "), strings.Join(fp, "\n  "))
					continue
				}
				if strings.Join(src, "\n===\n") != strings.Join(refSrc, "\n===\n") {
					t.Errorf("%s: reduced witnesses differ at workers=%d parallelism=%d despite equal fingerprints:\n--- ref\n%s\n--- got\n%s",
						row.name, workers, par, strings.Join(refSrc, "\n===\n"), strings.Join(src, "\n===\n"))
				}
			}
		}
	}
}

// TestEngineReduceSpeculationStats: under parallel reduction the engine
// must account speculation — serial-equivalent calls bounded by the
// per-finding budget, launches at least as many as serial calls, and the
// wasted count consistent with both.
func TestEngineReduceSpeculationStats(t *testing.T) {
	cfg := buggyEngineConfig(t, 12, 4, "P4C-C-04", "P4C-S-02")
	cfg.ReduceOpts.Parallelism = 8
	e := core.NewEngine(cfg)
	fs := e.Run(context.Background())
	if len(fs) == 0 {
		t.Fatal("no findings to reduce")
	}
	s := e.Stats()
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
	if len(c1) != len(c8) {
		t.Fatalf("corpus size differs: %d vs %d seeds", len(c1), len(c8))
	}
	for i := range c1 {
		if c1[i] != c8[i] {
			t.Fatalf("corpus fingerprint %d differs: %016x vs %016x", i, c1[i], c8[i])
		}
	}
	if b1 != b8 {
		t.Errorf("energy bumps differ across worker counts: %d vs %d", b1, b8)
	}
	if m1 != m8 {
		t.Errorf("miscompilation count differs across worker counts: %d vs %d", m1, m8)
	}
}
