package core_test

import (
	"context"
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
