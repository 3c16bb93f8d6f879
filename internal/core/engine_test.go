package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/types"
	"gauntlet/internal/reduce"
)

// buggyEngineConfig builds an engine over the default pass pipeline
// instrumented with the named seeded defects.
func buggyEngineConfig(t *testing.T, seeds int64, workers int, ids ...string) core.EngineConfig {
	t.Helper()
	reg := bugs.Load()
	var active []*bugs.Bug
	for _, id := range ids {
		b := reg.ByID(id)
		if b == nil {
			t.Fatalf("registry has no bug %s", id)
		}
		active = append(active, b)
	}
	cfg := core.DefaultEngineConfig()
	cfg.Seeds = seeds
	cfg.Workers = workers
	cfg.Passes = bugs.Instrument(compiler.DefaultPasses(), active)
	cfg.ReduceOpts = reduce.Options{MaxRounds: 3, MaxPredicateCalls: 300}
	return cfg
}

func fingerprintSet(fs []core.Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, fmt.Sprintf("%s/%s/%016x", f.Kind, f.Pass, f.Fingerprint))
	}
	sort.Strings(out)
	return out
}

// TestEngineDedupAndReduce: many seeds tripping the same assertion must
// collapse to one finding (crash fingerprints are (pass, message)), and
// its witness must come out of the auto-reducer smaller.
func TestEngineDedupAndReduce(t *testing.T) {
	e := core.NewEngine(buggyEngineConfig(t, 20, 4, "P4C-C-04"))
	fs := e.Run(context.Background())
	s := e.Stats()
	if s.Crashes < 2 {
		t.Fatalf("expected several crashing seeds, got %d", s.Crashes)
	}
	if len(fs) != 1 {
		t.Fatalf("expected 1 unique finding after dedup, got %d", len(fs))
	}
	if s.Duplicates != s.Crashes-1 {
		t.Errorf("duplicates = %d, want %d (crashes-1)", s.Duplicates, s.Crashes-1)
	}
	f := fs[0]
	if f.Kind != core.FindingCrash || f.Pass != "TypeChecking" {
		t.Errorf("finding = %s in %s, want crash in TypeChecking", f.Kind, f.Pass)
	}
	if f.SizeAfter >= f.SizeBefore {
		t.Errorf("witness not reduced: %d -> %d statements", f.SizeBefore, f.SizeAfter)
	}
	if f.Source == "" || f.Program == nil {
		t.Error("finding carries no witness")
	}
	// The reduced witness must still trigger the same crash through the
	// shared oracle.
	out := e.Oracle().Examine(context.Background(), f.Program)
	if out.Crash == nil || out.Crash.Pass != f.Pass {
		t.Errorf("reduced witness no longer crashes the pass (outcome %+v)", out)
	}
	// Findings must be JSONL-serializable with a stable kind string.
	line, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("marshal finding: %v", err)
	}
	if !strings.Contains(string(line), `"kind":"crash"`) {
		t.Errorf("JSONL line missing kind: %s", line)
	}
}

// TestEngineCancellation: cancelling an unbounded run mid-stream, once
// programs flow through the oracle, must terminate Run promptly and leak
// no goroutines (run under -race in CI).
func TestEngineCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := buggyEngineConfig(t, 0 /* unbounded */, 4, "P4C-C-17", "P4C-S-02")
	ctx, cancel := context.WithCancel(context.Background())
	e := core.NewEngine(cfg)
	done := make(chan []core.Finding, 1)
	go func() { done <- e.Run(ctx) }()
	for deadline := time.Now().Add(20 * time.Second); e.Stats().Compiled == 0 && time.Now().Before(deadline); {
		time.Sleep(25 * time.Millisecond)
	}
	if e.Stats().Compiled == 0 {
		t.Error("no program compiled before cancellation: the oracle stage never ran")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return within 30s of cancellation")
	}
	// Goroutines wind down asynchronously after Run returns; poll.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after cancel\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
	if g := e.Stats().Generated; g == 0 {
		t.Error("engine generated nothing before cancellation")
	}
}

// TestHuntMatchesSharedOracle pins Campaign.Hunt to the shared oracle
// stage: examining a bug's witness through Campaign.OracleFor must agree
// with Hunt's detection verdict and technique, for every platform ×
// technique combination.
func TestHuntMatchesSharedOracle(t *testing.T) {
	reg := bugs.Load()
	c := core.NewCampaign()
	samples := []struct {
		id   string
		tech core.Technique
	}{
		{"P4C-C-01", core.CrashHunt},
		{"P4C-S-06", core.TranslationValidation},
		{"BMV2-S-01", core.SymbolicExecution},
		{"TOF-C-01", core.CrashHunt},
		{"TOF-S-01", core.SymbolicExecution},
	}
	for _, s := range samples {
		b := reg.ByID(s.id)
		if b == nil {
			t.Fatalf("registry has no bug %s", s.id)
		}
		prog, err := parser.Parse(b.Witness)
		if err != nil {
			t.Fatalf("%s: %v", s.id, err)
		}
		if err := types.Check(prog); err != nil {
			t.Fatalf("%s: %v", s.id, err)
		}
		o, err := c.OracleFor(b)
		if err != nil {
			t.Fatalf("%s: %v", s.id, err)
		}
		out := o.Examine(context.Background(), prog)
		det, err := c.Hunt(b)
		if err != nil {
			t.Fatalf("%s: hunt: %v", s.id, err)
		}
		if !det.Detected || !out.Finding() {
			t.Errorf("%s: hunt detected=%v, oracle finding=%v — want both true", s.id, det.Detected, out.Finding())
			continue
		}
		var oracleTech core.Technique
		switch {
		case out.Crash != nil:
			oracleTech = core.CrashHunt
		case len(out.Failures) > 0:
			oracleTech = core.TranslationValidation
		case len(out.Mismatches) > 0:
			oracleTech = core.SymbolicExecution
		}
		if oracleTech != det.Technique || det.Technique != s.tech {
			t.Errorf("%s: oracle says %s, hunt says %s, want %s", s.id, oracleTech, det.Technique, s.tech)
		}
	}
}

// mutatingEngineConfig builds a corpus-mode engine config: seeded
// defects, a small sync interval so mutation kicks in after the first
// round, and a fixed master seed.
func mutatingEngineConfig(t *testing.T, seeds int64, workers int, masterSeed int64) core.EngineConfig {
	cfg := buggyEngineConfig(t, seeds, workers, "P4C-C-04", "P4C-C-13", "P4C-S-02")
	cfg.Seed = masterSeed
	cfg.MutateRatio = 0.5
	cfg.SyncInterval = 8
	return cfg
}

// TestEngineCorpusStats: corpus-mode accounting — every slot still yields
// exactly one program, mutation engages, admission tracks coverage, and
// the summary renders the corpus line.
func TestEngineCorpusStats(t *testing.T) {
	e := core.NewEngine(mutatingEngineConfig(t, 40, 4, 3))
	e.Run(context.Background())
	s := e.Stats()
	if s.Generated != 40 {
		t.Errorf("generated = %d, want 40 (every slot yields one program)", s.Generated)
	}
	if s.Mutated == 0 {
		t.Error("no mutated programs despite mutate-ratio 0.5")
	}
	if s.Mutated >= s.Generated {
		t.Errorf("mutated = %d of %d: fresh generation starved", s.Mutated, s.Generated)
	}
	if s.Crashes+s.InvalidTransforms+s.CompileErrors+s.Compiled != s.Generated {
		t.Errorf("compile stage accounting broken: %+v", s)
	}
	if s.Corpus.Admitted == 0 {
		t.Error("no corpus admissions over 40 programs")
	}
	if s.Corpus.Admitted+s.Corpus.Rejected != s.Generated {
		t.Errorf("admission accounting: %d admitted + %d rejected != %d generated",
			s.Corpus.Admitted, s.Corpus.Rejected, s.Generated)
	}
	if s.Corpus.Edges == 0 || s.Corpus.Fingerprints == 0 {
		t.Errorf("coverage counters empty: %+v", s.Corpus)
	}
	if s.Corpus.Seeds == 0 || s.Corpus.Seeds != e.Corpus().Len() {
		t.Errorf("corpus size mismatch: stats %d vs corpus %d", s.Corpus.Seeds, e.Corpus().Len())
	}
	if !strings.Contains(s.Summary(), "corpus:") {
		t.Errorf("summary missing corpus line:\n%s", s.Summary())
	}
}

// TestEngineCorpusPersistence: a corpus saved from one run primes the
// next — loaded seeds pass the admission gate again and mutation can
// engage from slot 0 of the second run.
func TestEngineCorpusPersistence(t *testing.T) {
	dir := t.TempDir()
	first := core.NewEngine(mutatingEngineConfig(t, 24, 4, 5))
	first.Run(context.Background())
	if first.Corpus().Len() == 0 {
		t.Fatal("first run admitted nothing")
	}
	if _, err := first.Corpus().Save(dir); err != nil {
		t.Fatal(err)
	}

	cfg := mutatingEngineConfig(t, 8, 4, 5)
	cfg.Corpus = nil
	pre := core.NewEngine(cfg)
	n, err := pre.Corpus().Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing loaded from the saved corpus")
	}
	pre.Run(context.Background())
	if got := pre.Stats().Mutated; got == 0 {
		t.Error("pre-loaded corpus did not enable mutation in the first round")
	}
}

// TestEngineStats: the snapshot must account for every generated program
// and surface the shared-cache and interner observability counters.
func TestEngineStats(t *testing.T) {
	cfg := buggyEngineConfig(t, 10, 4, "P4C-C-04")
	var streamed int
	cfg.OnFinding = func(core.Finding) { streamed++ }
	e := core.NewEngine(cfg)
	fs := e.Run(context.Background())
	s := e.Stats()
	if s.Generated != 10 {
		t.Errorf("generated = %d, want 10", s.Generated)
	}
	if s.Crashes+s.InvalidTransforms+s.CompileErrors+s.Compiled != s.Generated {
		t.Errorf("compile stage accounting: %d crashes + %d invalid + %d errs + %d compiled != %d generated",
			s.Crashes, s.InvalidTransforms, s.CompileErrors, s.Compiled, s.Generated)
	}
	if s.Clean+s.Miscompilations+s.Mismatches+s.OracleErrors != s.Compiled {
		t.Errorf("oracle stage accounting: %d clean + %d misc + %d mismatch + %d errs != %d compiled",
			s.Clean, s.Miscompilations, s.Mismatches, s.OracleErrors, s.Compiled)
	}
	if s.UniqueFindings != uint64(len(fs)) || streamed != len(fs) {
		t.Errorf("unique=%d, streamed=%d, returned=%d — want equal", s.UniqueFindings, streamed, len(fs))
	}
	if s.Interner.Entries == 0 || s.Interner.BytesEstimate == 0 || s.Interner.Shards == 0 {
		t.Errorf("interner stats empty: %+v", s.Interner)
	}
	// Crash-family reduction predicates are compile-only (the fast path),
	// so validation counters move only when some program reaches the
	// oracle stage.
	if s.Compiled > 0 && s.BlockHits+s.BlockMisses == 0 {
		t.Error("validation cache counters empty despite miscompilation-free compiles")
	}
	if s.Compiled == 0 && s.BlockHits+s.BlockMisses != 0 {
		t.Error("crash-only run touched the validation cache: reduction fast path not taken")
	}
	if s.Elapsed <= 0 || s.ProgramsPerSec <= 0 {
		t.Errorf("throughput not measured: elapsed=%v rate=%f", s.Elapsed, s.ProgramsPerSec)
	}
	if !strings.Contains(s.Summary(), "programs:") {
		t.Errorf("summary malformed:\n%s", s.Summary())
	}
}
