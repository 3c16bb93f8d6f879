package core_test

import (
	"strings"
	"testing"

	"gauntlet/internal/bugs"
	"gauntlet/internal/core"
)

// TestRegistryShape checks the registry reproduces the paper's exact bug
// population (Table 2 cells are properties of the metadata; detection is
// exercised separately).
func TestRegistryShape(t *testing.T) {
	reg := bugs.Load()
	c := reg.CountTable2()
	want := map[string]int{
		"crash/filed/P4C": 26, "crash/confirmed/P4C": 25, "crash/fixed/P4C": 21,
		"semantic/filed/P4C": 26, "semantic/confirmed/P4C": 21, "semantic/fixed/P4C": 15,
		"crash/filed/BMv2": 2, "crash/confirmed/BMv2": 2, "crash/fixed/BMv2": 2,
		"semantic/filed/BMv2": 2, "semantic/confirmed/BMv2": 2, "semantic/fixed/BMv2": 2,
		"crash/filed/Tofino": 25, "crash/confirmed/Tofino": 20, "crash/fixed/Tofino": 4,
		"semantic/filed/Tofino": 10, "semantic/confirmed/Tofino": 8, "semantic/fixed/Tofino": 0,
	}
	for k, w := range want {
		if c[k] != w {
			t.Errorf("registry %s = %d, want %d", k, c[k], w)
		}
	}
	if got := len(reg.Confirmed()); got != 78 {
		t.Errorf("confirmed bugs = %d, want 78", got)
	}

	// §7.2 metadata invariants.
	tc, p4cCrash, cico, p4cSem, merged, p4cAll, spec, deriv := 0, 0, 0, 0, 0, 0, 0, 0
	for _, b := range reg.Confirmed() {
		if b.Platform == bugs.P4C {
			p4cAll++
			if b.MergeWeek > 0 {
				merged++
			}
			if b.Kind == bugs.Crash {
				p4cCrash++
				if b.RootCause == "type checker" {
					tc++
				}
			} else {
				p4cSem++
				if b.RootCause == "copy-in/copy-out" {
					cico++
				}
			}
		}
		if b.SpecChange {
			spec++
		}
		if b.Derivative {
			deriv++
		}
	}
	if tc != 18 || p4cCrash != 25 {
		t.Errorf("type checker crashes %d/%d, want 18/25", tc, p4cCrash)
	}
	if cico < 8 {
		t.Errorf("copy-in/copy-out semantic bugs %d, want >= 8", cico)
	}
	if merged != 16 || p4cAll != 46 {
		t.Errorf("merge regressions %d/%d, want 16/46", merged, p4cAll)
	}
	if spec != 6 {
		t.Errorf("spec changes %d, want 6", spec)
	}
	if deriv != 5 {
		t.Errorf("derivative bugs %d, want 5", deriv)
	}
}

// TestHuntSampleBugs detects one representative bug per
// platform × kind combination end to end.
func TestHuntSampleBugs(t *testing.T) {
	reg := bugs.Load()
	c := core.NewCampaign()
	samples := []struct {
		id   string
		tech core.Technique
	}{
		{"P4C-C-01", core.CrashHunt},             // Fig. 5b type checker crash
		{"P4C-S-06", core.TranslationValidation}, // Fig. 5f exit/copy-out
		{"P4C-S-07", core.TranslationValidation}, // Fig. 5d slice copy-out
		{"P4C-S-16", core.TranslationValidation}, // predication regression
		{"BMV2-C-01", core.CrashHunt},
		{"BMV2-S-01", core.SymbolicExecution},
		{"TOF-C-01", core.CrashHunt},
		{"TOF-S-01", core.SymbolicExecution},
	}
	for _, s := range samples {
		b := reg.ByID(s.id)
		if b == nil {
			t.Fatalf("registry has no bug %s", s.id)
		}
		det, err := c.Hunt(b)
		if err != nil {
			t.Fatalf("%s: hunt: %v", s.id, err)
		}
		if !det.Detected {
			t.Errorf("%s (%s) not detected", s.id, b.Description)
			continue
		}
		if det.Technique != s.tech {
			t.Errorf("%s detected by %s, want %s (detail: %s)", s.id, det.Technique, s.tech, det.Detail)
		}
	}
}

// TestNoFalseAlarms runs the three techniques with no bug active: a clean
// compiler must produce no findings (the paper's false-alarm discipline,
// §5.2: unconfirmed reports are interpreter bugs).
func TestNoFalseAlarms(t *testing.T) {
	reg := bugs.Load()
	c := core.NewCampaign()
	// Every witness must compile cleanly and pass all three techniques on
	// the reference (defect-free) pipeline.
	seen := map[string]bool{}
	for _, b := range reg.Confirmed() {
		if seen[b.Witness] {
			continue
		}
		seen[b.Witness] = true
		det, err := c.HuntClean(b)
		if err != nil {
			t.Fatalf("%s: clean run: %v", b.ID, err)
		}
		if det != "" {
			t.Errorf("%s: clean pipeline flagged: %s", b.ID, det)
		}
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct witnesses exercised", len(seen))
	}
}

// TestFullCampaignDetectsAll is the Table 2 reproduction: every confirmed
// bug must be detected via its witness.
func TestFullCampaignDetectsAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign is solver-heavy")
	}
	c := core.NewCampaign()
	dets, err := c.RunAll()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	rep := core.NewReport(c.Registry, dets)
	if missed := rep.Missed(); len(missed) > 0 {
		t.Errorf("missed %d confirmed bugs:\n  %s", len(missed), strings.Join(missed, "\n  "))
	}
	t2 := rep.Table2()
	if !strings.Contains(t2, "(total 78)") {
		t.Errorf("Table 2 total != 78:\n%s", t2)
	}
	for _, row := range []string{
		"Crash      Filed         26      2       25",
		"           Confirmed     25      2       20",
		"           Fixed         21      2        4",
		"Semantic   Filed         26      2       10",
		"           Confirmed     21      2        8",
		"           Fixed         15      2        0",
	} {
		if !strings.Contains(t2, row) {
			t.Errorf("Table 2 missing row %q:\n%s", row, t2)
		}
	}
	t3 := rep.Table3()
	if !strings.Contains(t3, "front end") || !strings.Contains(t3, "back end") {
		t.Errorf("Table 3 malformed:\n%s", t3)
	}
	// The 4 invalid-transformation bugs are detected through the
	// emit/reparse instrumentation but never counted in the 78 (§7.2).
	for _, b := range c.Registry.InvalidTransforms() {
		d := dets[b.ID]
		if !d.Detected || !d.InvalidTransform {
			t.Errorf("%s: invalid transformation not detected via reparse (det=%+v)", b.ID, d)
		}
	}
	if !strings.Contains(rep.DeepDive(), "uncounted): 4") {
		t.Errorf("deep dive missing invalid-transform line:\n%s", rep.DeepDive())
	}
}

// TestRandomGenerationFindsBugs is the paper's actual discovery mode: no
// witness, only randomly generated programs. A sample of construct-
// triggered bugs must fall to pure generation (§4: the generator exists
// precisely so common constructs appear often enough to trip defects).
func TestRandomGenerationFindsBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("generation-heavy")
	}
	reg := bugs.Load()
	c := core.NewCampaign()
	c.SkipWitness = true
	c.RandomSeeds = 40
	for _, id := range []string{
		"P4C-C-04", // type checker crash on mux — muxes are everywhere
		"P4C-C-05", // slice reads
		"P4C-C-13", // switch statements
	} {
		b := reg.ByID(id)
		det, err := c.Hunt(b)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !det.Detected {
			t.Errorf("%s (%s) not found by 40 random programs", id, b.Description)
			continue
		}
		if det.Via == "witness" {
			t.Errorf("%s: witness used despite SkipWitness", id)
		}
	}
}

// TestLevelStudyShape reproduces the Table 1 claim: generic fuzzing never
// reaches the deep compiler stages, while every Gauntlet-generated
// program compiles fully (the level 5-7 territory where the interesting
// bugs live).
func TestLevelStudyShape(t *testing.T) {
	s := core.RunLevelStudy(25)
	get := func(class string, lvl core.Level) int { return s.Counts[class][lvl] }
	if n := get("random bytes (AFL seed)", core.RejectedByLexer); n != 25 {
		t.Errorf("random bytes surviving the lexer: %d of 25 rejected", n)
	}
	if n := get("token salad", core.RejectedByParser) + get("token salad", core.RejectedByLexer); n != 25 {
		t.Errorf("token salad past the parser: %d of 25 rejected early", n)
	}
	if n := get("type-broken", core.RejectedByChecker); n != 25 {
		t.Errorf("type-broken inputs not stopped by the checker: %d of 25", n)
	}
	if n := get("Gauntlet generator", core.Accepted); n != 25 {
		t.Errorf("generated programs fully compiling: %d of 25", n)
	}
	// Byte mutants occasionally parse, but never deeper than the checker.
	deep := get("byte mutants (AFL)", core.CrashedCompiler) + get("byte mutants (AFL)", core.Accepted)
	if deep != 0 {
		t.Errorf("AFL-style mutants reached deep stages %d times", deep)
	}
}
