package core_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gauntlet/internal/core"
	"gauntlet/internal/generator"
	"gauntlet/internal/p4/ast"
)

// render writes what a finished campaign shows the outside: its findings
// in report order, which is the OnFinding sequence (slot, kind, pass,
// fingerprint, hash of the printed witness), then the final corpus
// fingerprints and the corpus bump count. Bench digests sort findings;
// this rendering keeps the release and report order.
func render(e *core.Engine, fs []core.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		h := fnv.New64a()
		h.Write([]byte(f.Source))
		fmt.Fprintf(&b, "finding slot=%d kind=%s pass=%s fingerprint=%016x witness=%016x\n",
			f.Seed, f.Kind, f.Pass, f.Fingerprint, h.Sum64())
	}
	for _, fp := range e.Corpus().Fingerprints() {
		fmt.Fprintf(&b, "corpus %016x\n", fp)
	}
	fmt.Fprintf(&b, "bumps %d\n", e.Stats().Corpus.Bumps)
	return b.String()
}

// goldenStreamFile pins a mutating campaign's observable output.
const goldenStreamFile = "testdata/finding_stream.golden"

// findingStream runs a mutating campaign, 40 slots in five rounds of 8,
// with a crash defect and a semantic one, and renders it. P4C-C-17
// crashes about one program in four and P4C-S-02 miscompiles most of
// the rest, so rounds release both kinds of candidate and mutants' oracle
// findings bump energy. (P4C-C-04 would crash every program in
// TypeChecking, and nothing would reach the oracle.)
func findingStream(t *testing.T, workers int) string {
	cfg := buggyEngineConfig(t, 40, workers, "P4C-S-02", "P4C-C-17")
	cfg.Seed = 7
	cfg.MutateRatio = 0.7
	cfg.SyncInterval = 8
	e := core.NewEngine(cfg)
	return render(e, e.Run(context.Background()))
}

// TestFindingStreamGolden: the finding stream, the final corpus and the
// energy bumps match testdata/finding_stream.golden at one worker and
// four. The file was recorded while fold r still waited for every oracle
// verdict of round r-1, so it also shows that gating folds on mutant
// verdicts alone changed when the scheduler moves on and nothing else.
// A change that moves an output on purpose re-records the file from the
// rendering this test prints on mismatch.
func TestFindingStreamGolden(t *testing.T) {
	want, err := os.ReadFile(goldenStreamFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		if got := findingStream(t, workers); got != string(want) {
			t.Errorf("workers=%d: output differs from %s; got:\n%s", workers, goldenStreamFile, got)
		}
	}
}

// foldRound is foldConfig's round size.
const foldRound = 4

// foldWait bounds how long a scheduling test waits for the pipeline to
// reach a stage it must reach.
const foldWait = 20 * time.Second

// foldConfig is the scheduling tests' campaign: 16 slots in four rounds
// of 4 on two workers, half of them mutated once the corpus holds seeds.
// Round 0 is all fresh, because the corpus starts empty.
func foldConfig(t *testing.T) core.EngineConfig {
	cfg := buggyEngineConfig(t, 16, 2, "P4C-S-02", "P4C-C-17")
	cfg.Seed = 7
	cfg.MutateRatio = 0.5
	cfg.SyncInterval = foldRound
	return cfg
}

// foldDryRun runs foldConfig with hooks that only observe, and returns
// its rendering, the slots that reached the oracle stage, and the
// mutated slots: a mutant never calls Generate.
func foldDryRun(t *testing.T) (string, map[int64]bool, map[int64]bool) {
	cfg := foldConfig(t)
	var mu sync.Mutex
	oracle, generated := map[int64]bool{}, map[int64]bool{}
	cfg.Generate = func(seed int64) *ast.Program {
		mu.Lock()
		generated[seed] = true
		mu.Unlock()
		return generator.Generate(generator.DefaultConfig(seed))
	}
	cfg.FaultHook = func(_ context.Context, stage string, slot int64) error {
		if stage == "oracle" {
			mu.Lock()
			oracle[slot] = true
			mu.Unlock()
		}
		return nil
	}
	e := core.NewEngine(cfg)
	out := render(e, e.Run(context.Background()))
	mutants := map[int64]bool{}
	for slot := int64(0); slot < cfg.Seeds; slot++ {
		if !generated[slot] {
			mutants[slot] = true
		}
	}
	return out, oracle, mutants
}

// blockFirst returns the lowest slot of round k that reached the oracle
// and satisfies want.
func blockFirst(t *testing.T, oracle map[int64]bool, k int64, want func(int64) bool, what string) int64 {
	t.Helper()
	for slot := k * foldRound; slot < (k+1)*foldRound; slot++ {
		if oracle[slot] && want(slot) {
			return slot
		}
	}
	t.Fatalf("no %s slot of round %d reaches the oracle", what, k)
	return -1
}

// reached returns a channel that closes once every slot of round k has
// entered stage, and the observer a fault hook feeds every call to.
func reached(stage string, k int64) (<-chan struct{}, func(stage string, slot int64)) {
	var mu sync.Mutex
	pending := map[int64]bool{}
	for slot := k * foldRound; slot < (k+1)*foldRound; slot++ {
		pending[slot] = true
	}
	done := make(chan struct{})
	return done, func(s string, slot int64) {
		mu.Lock()
		defer mu.Unlock()
		if s == stage && pending[slot] {
			delete(pending, slot)
			if len(pending) == 0 {
				close(done)
			}
		}
	}
}

// startHooked starts foldConfig's campaign with a fault hook that holds
// slot block's oracle stage until release closes and passes every call
// to observe. It returns the engine and the campaign's rendering once
// Run returns.
func startHooked(t *testing.T, block int64, release <-chan struct{}, observe func(stage string, slot int64)) (*core.Engine, <-chan string) {
	cfg := foldConfig(t)
	cfg.FaultHook = func(ctx context.Context, stage string, slot int64) error {
		observe(stage, slot)
		if stage == "oracle" && slot == block {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return nil
	}
	e := core.NewEngine(cfg)
	done := make(chan string, 1)
	go func() { done <- render(e, e.Run(context.Background())) }()
	return e, done
}

// TestFreshVerdictDoesNotHoldFold: a fold bumps energy only for findings
// on mutants, so it must not wait for the verdict of a fresh slot. With
// one round-0 verdict held, rounds 1 and 2 still get scheduled: fold 1
// needs round 1's compile records and round 0's mutant verdicts, of
// which there are none. Once the verdict is released, the run's output
// equals an unhooked run's.
func TestFreshVerdictDoesNotHoldFold(t *testing.T) {
	want, oracle, _ := foldDryRun(t)
	block := blockFirst(t, oracle, 0, func(int64) bool { return true }, "fresh")

	release := make(chan struct{})
	roundTwo, observe := reached("generate", 2)
	_, done := startHooked(t, block, release, observe)
	select {
	case <-roundTwo:
	case <-time.After(foldWait):
		t.Errorf("round 2 was not scheduled within %v while fresh slot %d's verdict was held", foldWait, block)
	}
	close(release)
	if got := <-done; got != want {
		t.Errorf("output differs from the unhooked run:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMutantVerdictHoldsFold is the converse: a mutant's finding bumps
// its base's energy at the next fold, before round 3 draws from the
// corpus, so fold 2 must wait for the verdict of every mutant in round
// 1. With one of them held, no round-3 slot may reach generate.
func TestMutantVerdictHoldsFold(t *testing.T) {
	want, oracle, mutants := foldDryRun(t)
	block := blockFirst(t, oracle, 1, func(slot int64) bool { return mutants[slot] }, "mutant")

	release := make(chan struct{})
	var released atomic.Bool
	var mu sync.Mutex
	var early []int64 // round-3 slots that reached generate before the release
	roundTwo, compiling := reached("compile", 2)
	e, done := startHooked(t, block, release, func(stage string, slot int64) {
		compiling(stage, slot)
		if stage == "generate" && slot/foldRound == 3 && !released.Load() {
			mu.Lock()
			early = append(early, slot)
			mu.Unlock()
		}
	})
	select {
	case <-roundTwo:
		// Room for round 2's compiles to finish, and for a fold 2 that
		// did not wait to happen.
		time.Sleep(300 * time.Millisecond)
		if folded := e.Health().ProgramsFolded; folded != 2*foldRound {
			t.Errorf("%d programs folded while mutant slot %d's verdict was held, want %d (rounds 0 and 1)",
				folded, block, 2*foldRound)
		}
	case <-time.After(foldWait):
		t.Errorf("round 2 was not compiled within %v", foldWait)
	}
	released.Store(true)
	close(release)
	got := <-done
	mu.Lock()
	if len(early) > 0 {
		t.Errorf("round-3 slots %v reached generate while mutant slot %d's verdict was held", early, block)
	}
	mu.Unlock()
	if got != want {
		t.Errorf("output differs from the unhooked run:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
