package core_test

import (
	"context"
	"strings"
	"testing"

	"gauntlet/internal/core"
	"gauntlet/internal/obs"
)

// TestFindingProvenance: every reported finding carries a lineage trace
// whose schedule fields match the finding and whose stage timings are
// populated for the stages the finding actually crossed. Two runs —
// a crash defect and a semantic one — exercise both the compile-stage
// and oracle-stage provenance shapes.
func TestFindingProvenance(t *testing.T) {
	var reg *obs.Registry
	var fs []core.Finding
	for _, id := range []string{"P4C-C-04", "P4C-S-02"} {
		// Crashes preempt oracle inspection, so each defect gets its own
		// run (20 seeds fires both reliably) and its own registry — one
		// engine per registry, or the stats collectors would emit
		// duplicate series.
		cfg := buggyEngineConfig(t, 20, 4, id)
		reg = obs.NewRegistry()
		cfg.Obs = reg
		got := core.NewEngine(cfg).Run(context.Background())
		if len(got) == 0 {
			t.Fatalf("no findings from %s within 20 seeds", id)
		}
		fs = append(fs, got...)
	}
	var sawSemantic, sawCompileStage bool
	for _, f := range fs {
		p := f.Provenance
		if p == nil {
			t.Fatalf("finding %s/%s has no provenance", f.Kind, f.Pass)
		}
		if p.Slot != f.Seed {
			t.Errorf("provenance slot %d != finding seed %d", p.Slot, f.Seed)
		}
		if p.Origin != f.Origin {
			t.Errorf("provenance origin %q != finding origin %q", p.Origin, f.Origin)
		}
		if p.Origin == "generate" && len(p.Mutations) != 0 {
			t.Errorf("generated finding carries mutation stack %v", p.Mutations)
		}
		if p.GenerateNs <= 0 {
			t.Errorf("GenerateNs = %d, want > 0", p.GenerateNs)
		}
		if p.CompileNs <= 0 {
			t.Errorf("CompileNs = %d, want > 0", p.CompileNs)
		}
		switch f.Kind {
		case core.FindingCrash, core.FindingInvalidTransform:
			sawCompileStage = true
			// Compile-stage findings never reach the oracle.
			if p.OracleNs != 0 || len(p.QueryTiers) != 0 {
				t.Errorf("compile-stage finding has oracle provenance: %+v", p)
			}
		default:
			sawSemantic = true
			if p.OracleNs <= 0 {
				t.Errorf("semantic finding OracleNs = %d, want > 0", p.OracleNs)
			}
			if len(p.QueryTiers) == 0 {
				t.Error("semantic finding has empty QueryTiers")
			}
			for tier := range p.QueryTiers {
				switch tier {
				case "simplified", "cache-hit", "hint-replay", "concolic-falsified", "cdcl":
				default:
					t.Errorf("unknown query tier %q", tier)
				}
			}
		}
		if f.SizeAfter < f.SizeBefore {
			// A witness that actually shrank must account for the
			// reduction work that shrank it.
			if p.ReduceNs <= 0 || p.ReduceSerialCalls <= 0 {
				t.Errorf("reduced finding (%d -> %d) has ReduceNs=%d ReduceSerialCalls=%d",
					f.SizeBefore, f.SizeAfter, p.ReduceNs, p.ReduceSerialCalls)
			}
		}
	}
	if !sawSemantic {
		t.Error("expected at least one semantic finding from P4C-S-02")
	}
	if !sawCompileStage {
		t.Error("expected at least one compile-stage finding from P4C-C-04")
	}

	// The last run's registry observed it: stage histograms and the
	// stats collector render non-zero series.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`gauntlet_stage_duration_seconds_count{stage="generate"}`,
		`gauntlet_stage_duration_seconds_count{stage="compile"}`,
		`gauntlet_equivalence_query_duration_seconds`,
		"gauntlet_programs_generated_total 20",
		"gauntlet_findings_unique_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(out, `stage="generate"} 0`+"\n") {
		t.Error("generate histogram empty after a 15-seed run")
	}
}

// TestHealthAndDroppedRecords covers the liveness snapshot and the
// dropped-record accounting surfaced via Stats and its one-line form.
func TestHealthAndDroppedRecords(t *testing.T) {
	cfg := buggyEngineConfig(t, 5, 2, "P4C-C-04")
	e := core.NewEngine(cfg)
	if h := e.Health(); h.Running {
		t.Error("engine reports Running before Run")
	}
	e.Run(context.Background())
	h := e.Health()
	if h.Running {
		t.Error("engine reports Running after Run returned")
	}
	if h.ProgramsFolded == 0 {
		t.Error("ProgramsFolded = 0 after a 5-seed run")
	}
	if h.LastProgress.IsZero() {
		t.Error("LastProgress is zero after a run")
	}
	e.NoteDroppedRecord()
	e.NoteDroppedRecord()
	s := e.Stats()
	if s.RecordsDropped != 2 {
		t.Errorf("RecordsDropped = %d, want 2", s.RecordsDropped)
	}
	if line := s.OneLine(); !strings.Contains(line, "dropped=2") {
		t.Errorf("OneLine missing drop count: %s", line)
	}
	if sum := s.Summary(); !strings.Contains(sum, "2 records dropped") {
		t.Errorf("Summary missing drop count: %s", sum)
	}
}
