package core_test

import (
	"context"
	"strings"
	"testing"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/target/bmv2"
)

// TestConcolicResolvesQueriesWithoutSolver is the acceptance measurement:
// over a defect-seeded run, a nonzero fraction of mismatch verdicts must
// resolve concretely — zero SAT calls — and the avoided-call counter must
// reflect it.
func TestConcolicResolvesQueriesWithoutSolver(t *testing.T) {
	cfg := buggyEngineConfig(t, 15, 4, "P4C-S-02", "P4C-S-06")
	e := core.NewEngine(cfg)
	fs := e.Run(context.Background())
	if len(fs) == 0 {
		t.Fatal("no findings from seeded miscompilations")
	}
	s := e.Stats()
	if s.Miscompilations == 0 {
		t.Fatalf("no miscompilation verdicts: %+v", s)
	}
	if s.TapesCompiled == 0 {
		t.Errorf("no tapes compiled: %+v", s)
	}
	if s.ConcolicFalsified == 0 {
		t.Errorf("no equivalence query falsified concretely (want a nonzero fraction): falsified=%d fallbacks=%d",
			s.ConcolicFalsified, s.VerdictMisses)
	}
	if s.SolverCallsAvoided < s.ConcolicFalsified {
		t.Errorf("SolverCallsAvoided=%d < ConcolicFalsified=%d", s.SolverCallsAvoided, s.ConcolicFalsified)
	}
	if s.ConcolicPackets == 0 {
		t.Errorf("no concrete packets accounted: %+v", s)
	}
	// The counters must render in the summary (the serve-mode observable).
	if sum := s.Summary(); !strings.Contains(sum, "falsified concretely") {
		t.Errorf("summary missing concolic line:\n%s", sum)
	}
	// And with the fast path off, the same counters stay zero.
	cfg2 := buggyEngineConfig(t, 15, 4, "P4C-S-02", "P4C-S-06")
	cfg2.ConcolicOff = true
	e2 := core.NewEngine(cfg2)
	fs2 := e2.Run(context.Background())
	s2 := e2.Stats()
	if s2.TapesCompiled != 0 || s2.ConcolicFalsified != 0 || s2.ConcolicPackets != 0 {
		t.Errorf("ConcolicOff still ran the tape: %+v", s2)
	}
	// ... while the verdicts themselves are invariant.
	if on, off := fingerprintSet(fs), fingerprintSet(fs2); strings.Join(on, "\n") != strings.Join(off, "\n") {
		t.Errorf("finding set depends on the fast path:\non:\n  %s\noff:\n  %s",
			strings.Join(on, "\n  "), strings.Join(off, "\n  "))
	}
}

// TestMismatchReductionReplaysCounterexample: reducing a packet-mismatch
// finding must hit the counterexample-replay fast path — one compile plus
// one injection per candidate — instead of re-running full symbolic test
// generation every time. Replay is a remembered input, not a concolic
// shortcut, so it must run with the concolic tier off as well.
func TestMismatchReductionReplaysCounterexample(t *testing.T) {
	for _, concolicOff := range []bool{false, true} {
		cfg := buggyEngineConfig(t, 20, 4, "BMV2-S-01")
		// BMV2-S-01 hides in the BMv2Lowering backend pass, so the defect
		// only arms on the full device pipeline (buggyEngineConfig
		// instruments the mid-end-only default) — and it surfaces as a
		// packet mismatch only in the paper's black-box back-end mode,
		// where translation validation cannot see inside the lowering.
		reg := bugs.Load()
		cfg.Passes = bugs.Instrument(append(compiler.DefaultPasses(), bmv2.BackendPasses()...),
			[]*bugs.Bug{reg.ByID("BMV2-S-01")})
		cfg.PacketTests = true
		cfg.BlackBox = true
		cfg.ConcolicOff = concolicOff
		e := core.NewEngine(cfg)
		fs := e.Run(context.Background())
		var mismatches int
		for _, f := range fs {
			if f.Kind == core.FindingMismatch {
				mismatches++
			}
		}
		if mismatches == 0 {
			t.Fatalf("ConcolicOff %v: no mismatch findings from seeded device defect (findings: %v)",
				concolicOff, fingerprintSet(fs))
		}
		s := e.Stats()
		if s.CexReplayHits == 0 {
			t.Errorf("ConcolicOff %v: mismatch reduction never replayed the cached counterexample (predicate calls: %d)",
				concolicOff, s.ReducePredicateCalls)
		}
		if s.SolverCallsAvoided < s.CexReplayHits {
			t.Errorf("ConcolicOff %v: SolverCallsAvoided=%d < CexReplayHits=%d",
				concolicOff, s.SolverCallsAvoided, s.CexReplayHits)
		}
		t.Logf("ConcolicOff %v: %d mismatches, %d counterexample replays", concolicOff, mismatches, s.CexReplayHits)
	}
}

// TestMiscompilationReductionUsesHints: reducing a miscompilation must
// replay the finding's counterexample as a concolic hint — candidates
// that still fail on the original distinguishing input are decided by one
// tape packet.
func TestMiscompilationReductionUsesHints(t *testing.T) {
	cfg := buggyEngineConfig(t, 15, 4, "P4C-S-02")
	e := core.NewEngine(cfg)
	fs := e.Run(context.Background())
	var miscompiles int
	for _, f := range fs {
		if f.Kind == core.FindingMiscompilation {
			miscompiles++
		}
	}
	if miscompiles == 0 {
		t.Fatalf("no miscompilation findings (findings: %v)", fingerprintSet(fs))
	}
	s := e.Stats()
	if s.ReducePredicateCalls == 0 {
		t.Fatal("reducer never ran")
	}
	if s.CexReplayHits == 0 {
		t.Errorf("reduction predicates never hit the hint-replay fast path: %+v calls=%d",
			s.CexReplayHits, s.ReducePredicateCalls)
	}
}
