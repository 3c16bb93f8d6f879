package validate_test

import (
	"testing"

	"gauntlet/internal/smt/solver"
	"gauntlet/internal/validate"
)

// Two semantically equal controls whose miter only a real solver search
// discharges: distributivity of 16-bit multiplication over addition is
// beyond the word-level simplifier, and the bit-blasted proof needs more
// than one conflict.
const distribA = `
control ig(inout bit<16> x, inout bit<16> y) {
    apply { x = (x + y) * 16w3; }
}`
const distribB = `
control ig(inout bit<16> x, inout bit<16> y) {
    apply { x = x * 16w3 + y * 16w3; }
}`

// TestUnknownVerdictsNeverCached: a budget-starved (Unknown) equivalence
// verdict must not enter the verdict cache — a later query on the same
// miter with a real budget has to reach the solver and come back
// definitive, not replay the earlier give-up.
func TestUnknownVerdictsNeverCached(t *testing.T) {
	a := mustProg(t, distribA)
	b := mustProg(t, distribB)
	cache := validate.NewCache()

	starved, err := validate.Pair(a, b, validate.Options{Cache: cache, MaxConflicts: 1})
	if err != nil {
		t.Fatal(err)
	}
	unknowns := 0
	for _, v := range starved {
		if v.Status == solver.Unknown {
			unknowns++
		}
	}
	if unknowns == 0 {
		t.Fatal("a 1-conflict budget starved no query; the regression check is vacuous")
	}
	before := cache.Snapshot()

	full, err := validate.Pair(a, b, validate.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range full {
		if v.Status == solver.Unknown {
			t.Fatalf("verdict %d still Unknown at full budget: the starved verdict was cached", i)
		}
		if !v.Equivalent {
			t.Fatalf("verdict %d: (x+y)*3 and x*3+y*3 must prove equivalent: %+v", i, v)
		}
	}
	after := cache.Snapshot()
	if after.VerdictMisses == before.VerdictMisses {
		t.Fatal("full-budget run never reached the solver: Unknown verdicts were served from cache")
	}
	if after.VerdictHits != before.VerdictHits {
		t.Fatalf("full-budget run hit the verdict cache %d times: Unknown was cached", after.VerdictHits-before.VerdictHits)
	}

	// Definitive verdicts, by contrast, are cached: a third run is pure
	// hits.
	if _, err := validate.Pair(a, b, validate.Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if third := cache.Snapshot(); third.VerdictMisses != after.VerdictMisses || third.VerdictHits == after.VerdictHits {
		t.Fatalf("definitive verdict was not cached: hits %d→%d, misses %d→%d",
			after.VerdictHits, third.VerdictHits, after.VerdictMisses, third.VerdictMisses)
	}
}
