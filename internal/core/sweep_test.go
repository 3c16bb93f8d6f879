package core_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"gauntlet/internal/core"
)

// sweepFile pins the witness-free detection sweep.
const sweepFile = "testdata/detection_sweep.golden"

// TestDetectionSweep is the paper's discovery mode measured over the
// registry: no witness, generator seeds 0-63 only. For each confirmed
// bug it renders the first generator seed whose program detects it, or
// "none", and compares the table with testdata/detection_sweep.golden.
// A change to the generator, the oracle or the solver's models shows
// here as a bug found sooner, later or not at all. A change that moves
// the table on purpose re-records the file from the rendering this test
// prints on mismatch, in the same change.
//
// Not parallel: the campaign builds its terms in the default smt
// context, which TestEngineRotationKeepsDefaultContextClean watches.
func TestDetectionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("generation-heavy")
	}
	want, err := os.ReadFile(sweepFile)
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCampaign()
	c.SkipWitness = true
	c.RandomSeeds = 64
	dets, err := c.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, bug := range c.Registry.Confirmed() {
		first := "none"
		if d := dets[bug.ID]; d.Detected {
			first = strings.TrimPrefix(d.Via, "seed ")
		}
		fmt.Fprintf(&b, "%s %s\n", bug.ID, first)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("detection sweep differs from %s; got:\n%s", sweepFile, got)
	}
}
