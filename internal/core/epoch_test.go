package core_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/generator"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/smt"
	"gauntlet/internal/validate"
)

// TestEngineEpochRotationBoundsMemory runs three epochs and checks the
// serve-mode memory story: every epoch retires with its own bounded
// context (entries comparable to its predecessor's, not accumulating),
// the engine's live interner snapshot is the current epoch's only, and
// the per-epoch stats surface through Stats and OnEpoch.
func TestEngineEpochRotationBoundsMemory(t *testing.T) {
	var epochs []core.EpochStats
	cfg := buggyEngineConfig(t, 48, 4, "P4C-S-02")
	cfg.Seed = 5
	cfg.SyncInterval = 8
	cfg.EpochPrograms = 16
	cfg.OnEpoch = func(es core.EpochStats) { epochs = append(epochs, es) }
	e := core.NewEngine(cfg)
	e.Run(context.Background())

	// Reference: the same run without rotation accumulates every term in
	// one context.
	refCfg := buggyEngineConfig(t, 48, 4, "P4C-S-02")
	refCfg.Seed = 5
	refCfg.SyncInterval = 8
	ref := core.NewEngine(refCfg)
	ref.Run(context.Background())

	if len(epochs) < 2 {
		t.Fatalf("expected at least 2 retired epochs over 48 programs at 16/epoch, got %d", len(epochs))
	}
	for i, es := range epochs {
		if es.Index != i {
			t.Errorf("epoch %d reported index %d", i, es.Index)
		}
		if es.Programs == 0 || es.Programs%uint64(cfg.SyncInterval) != 0 {
			t.Errorf("epoch %d folded %d programs: rotation not aligned to the SyncInterval fold", i, es.Programs)
		}
		if es.Context.Interner.Entries == 0 || es.Context.Interner.BytesEstimate == 0 {
			t.Errorf("epoch %d retired with an empty context: %+v", i, es.Context.Interner)
		}
	}
	// Steady state: a later epoch must not accumulate the earlier ones.
	// (Workload noise is real, so the bound here is loose — the CI bench
	// gate enforces the 15% plateau on the fixed benchmark workload.)
	first, last := epochs[0].Context.Interner.Entries, epochs[len(epochs)-1].Context.Interner.Entries
	if last > 3*first {
		t.Errorf("per-epoch interner grew %d → %d entries: rotation is not bounding memory", first, last)
	}
	s := e.Stats()
	if s.Epoch != len(epochs) {
		t.Errorf("Stats.Epoch = %d, want %d (current epoch after %d rotations)", s.Epoch, len(epochs), len(epochs))
	}
	// The rotating run's live interner holds only the current epoch's
	// terms; the non-rotating reference holds the whole run's. (The last
	// epoch also absorbs the tail reduction workload, so compare against
	// the true cumulative run, not against earlier epochs.)
	if live, total := s.Interner.Entries, ref.Stats().Interner.Entries; live >= total {
		t.Errorf("rotating run's live interner (%d entries) is no smaller than the non-rotating run's (%d)", live, total)
	}
	// Cumulative cache counters must survive rotation (no stats reset).
	var retiredVerdicts uint64
	for _, es := range epochs {
		retiredVerdicts += es.Cache.VerdictHits + es.Cache.VerdictMisses
	}
	if s.VerdictHits+s.VerdictMisses < retiredVerdicts {
		t.Errorf("cumulative verdict counters (%d) lost retired epochs' share (%d)",
			s.VerdictHits+s.VerdictMisses, retiredVerdicts)
	}
}

// TestServeEpochMemoryPlateau is the serve-mode memory plateau as a
// deterministic check: three epochs of the same compile+validate
// workload, run serially, each in a fresh smt.Context/validate.Cache pair
// as the engine's rotation installs it. With an identical workload any
// difference between epochs is state crossing a rotation, so every
// epoch's interner must hold exactly as many bytes as the first one's.
// (Through the streaming engine the pipeline runs ahead of the fold, so
// per-epoch terms smear across neighbours with scheduling; serial epochs
// have no such noise.)
func TestServeEpochMemoryPlateau(t *testing.T) {
	const perEpoch = 8
	progs := make([]*ast.Program, perEpoch)
	for i := range progs {
		progs[i] = generator.Generate(generator.DefaultConfig(int64(i)))
	}
	comp := compiler.New(compiler.DefaultPasses()...)
	var bytes [3]uint64
	for epoch := range bytes {
		cache := validate.NewCacheIn(smt.NewContext())
		opts := validate.Options{MaxConflicts: 20000, Cache: cache}
		for _, prog := range progs {
			res, err := comp.Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			verdicts, err := validate.Snapshots(res, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(validate.Failures(verdicts)) != 0 {
				t.Fatal("reference pipeline flagged")
			}
		}
		bytes[epoch] = cache.Context().InternerStats().BytesEstimate
	}
	if bytes[0] == 0 {
		t.Fatal("the first epoch interned nothing")
	}
	for epoch, b := range bytes {
		if b != bytes[0] {
			t.Errorf("epoch %d interner holds %d bytes, epoch 1 %d: state crosses the rotation", epoch+1, b, bytes[0])
		}
	}
}

// TestEngineEpochDrainNoLeaks cancels an unbounded rotating run
// mid-stream (the serve mode's SIGTERM path) and checks that Run drains
// without leaking goroutines — rotation must not strand a stage on a
// retired epoch. Run under -race in CI.
func TestEngineEpochDrainNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := buggyEngineConfig(t, 0 /* unbounded */, 4, "P4C-C-17", "P4C-S-02")
	cfg.Seed = 3
	cfg.MutateRatio = 0.5
	cfg.SyncInterval = 8
	cfg.EpochPrograms = 16
	ctx, cancel := context.WithCancel(context.Background())
	e := core.NewEngine(cfg)
	done := make(chan []core.Finding, 1)
	go func() { done <- e.Run(ctx) }()
	// Let it run long enough to rotate at least once, then drain.
	deadline := time.Now().Add(20 * time.Second)
	for e.Stats().Epoch == 0 && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	rotated := e.Stats().Epoch > 0
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return within 30s of cancellation")
	}
	if !rotated {
		t.Error("engine never rotated an epoch before the drain")
	}
	waitDeadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+1 {
			break
		}
		if time.Now().After(waitDeadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after drain\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestEngineRotationKeepsDefaultContextClean pins the contract the
// memory bound rests on: an engine, rotating (EpochPrograms > 0) or not,
// interns every term — variables, generated-program literals, testgen
// preference constants — in its epoch contexts, never in the immortal
// package-default context. Any default-interner growth here is a slow
// leak no rotation can reclaim and the per-epoch CI gate cannot see.
func TestEngineRotationKeepsDefaultContextClean(t *testing.T) {
	for _, epochs := range []int{0, 8} {
		cfg := buggyEngineConfig(t, 24, 4, "P4C-C-17", "P4C-S-02")
		cfg.Seed = 13
		cfg.MutateRatio = 0.5
		cfg.SyncInterval = 8
		cfg.EpochPrograms = epochs
		cfg.PacketTests = true
		before := smt.InternerStats().Entries
		e := core.NewEngine(cfg)
		e.Run(context.Background())
		if e.Stats().Compiled == 0 {
			t.Fatalf("EpochPrograms %d: no program compiled, so the oracle never built a term", epochs)
		}
		if after := smt.InternerStats().Entries; after != before {
			t.Errorf("EpochPrograms %d: the engine interned %d terms into the immortal default context", epochs, after-before)
		}
	}
}
