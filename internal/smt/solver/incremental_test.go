package solver_test

import (
	"math/rand"
	"testing"

	"gauntlet/internal/smt"
	"gauntlet/internal/smt/solver"
)

// randCond builds a random boolean constraint over the a/b variable pool.
func randCond(r *rand.Rand, depth int) *smt.Term {
	switch r.Intn(6) {
	case 0:
		return smt.Eq(randTerm(r, depth), randTerm(r, depth))
	case 1:
		return smt.Ult(randTerm(r, depth), randTerm(r, depth))
	case 2:
		return smt.Ule(randTerm(r, depth), randTerm(r, depth))
	case 3:
		return smt.Not(smt.Eq(randTerm(r, depth), randTerm(r, depth)))
	case 4:
		return smt.Or(smt.Ult(randTerm(r, depth), randTerm(r, depth)),
			smt.Eq(randTerm(r, depth), randTerm(r, depth)))
	default:
		return smt.And(smt.Ule(randTerm(r, depth), randTerm(r, depth)),
			smt.Not(smt.Eq(randTerm(r, depth), smt.Const(0, 8))))
	}
}

// TestSolveAssumingMatchesFreshSolve is the incremental-solver soundness
// differential: deciding a condition under assumptions on a live session
// must agree (Sat/Unsat and model validity) with a fresh solver given the
// condition as a hard assertion.
func TestSolveAssumingMatchesFreshSolve(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for round := 0; round < 60; round++ {
		base := []*smt.Term{randCond(r, 2)}
		if r.Intn(2) == 0 {
			base = append(base, randCond(r, 1))
		}
		sess := solver.NewSession(0)
		sess.Assert(base...)

		// A burst of queries against the same session: each must match a
		// throwaway solver handed the same problem.
		for q := 0; q < 6; q++ {
			cond := randCond(r, 2)
			inc := sess.SolveAssuming(sess.Lit(cond))
			fresh := solver.Solve(0, append([]*smt.Term{cond}, base...)...)
			if inc.Status != fresh.Status {
				t.Fatalf("round %d query %d: incremental=%v fresh=%v\n  base=%v\n  cond=%s",
					round, q, inc.Status, fresh.Status, base, cond)
			}
			if inc.Status != solver.Sat {
				continue
			}
			for _, a := range append([]*smt.Term{cond}, base...) {
				if smt.Eval(a, inc.Model) != 1 {
					t.Fatalf("round %d query %d: incremental model %v violates %s",
						round, q, inc.Model, a)
				}
			}
		}
	}
}

// referencePreferences replays the pre-incremental algorithm: one fresh
// solver per trial, re-asserting the base and every kept preference. It
// returns the final result plus the kept set (which is semantically
// determined, so both implementations must converge on it).
func referencePreferences(prefs []*smt.Term, assertions ...*smt.Term) (solver.Result, []*smt.Term) {
	base := solver.Solve(0, assertions...)
	if base.Status != solver.Sat || len(prefs) == 0 {
		return base, nil
	}
	kept := assertions
	var keptPrefs []*smt.Term
	best := base
	for _, p := range prefs {
		trial := solver.Solve(0, append(append([]*smt.Term{}, kept...), p)...)
		if trial.Status == solver.Sat {
			kept = append(kept, p)
			keptPrefs = append(keptPrefs, p)
			best = trial
		}
	}
	return best, keptPrefs
}

// TestPreferencesMatchReference is the incremental-vs-fresh differential
// over randomized term sets: a session's SolveAssumingSoft, one
// preference per group as test generation builds them, must reach the
// reference's satisfiability verdict, and its model must satisfy the
// assertions plus exactly the preference set the reference kept.
func TestPreferencesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for round := 0; round < 40; round++ {
		assertions := []*smt.Term{randCond(r, 2)}
		if r.Intn(2) == 0 {
			assertions = append(assertions, randCond(r, 1))
		}
		var prefs []*smt.Term
		for i := 0; i < 1+r.Intn(5); i++ {
			prefs = append(prefs, randCond(r, 1))
		}

		sess := solver.NewSession(0)
		sess.Assert(assertions...)
		soft := make([][]solver.Lit, len(prefs))
		for i, p := range prefs {
			soft[i] = []solver.Lit{sess.Lit(p)}
		}
		inc := sess.SolveAssumingSoft(nil, soft)
		sess.Close()
		ref, keptPrefs := referencePreferences(prefs, assertions...)

		if inc.Status != ref.Status {
			t.Fatalf("round %d: incremental=%v reference=%v", round, inc.Status, ref.Status)
		}
		if inc.Status != solver.Sat {
			continue
		}
		for _, a := range assertions {
			if smt.Eval(a, inc.Model) != 1 {
				t.Fatalf("round %d: model violates assertion %s", round, a)
			}
		}
		for _, p := range keptPrefs {
			if smt.Eval(p, inc.Model) != 1 {
				t.Fatalf("round %d: incremental model %v drops kept preference %s",
					round, inc.Model, p)
			}
		}
	}
}

// TestSessionSurvivesUnsatAssumptions checks that an assumption-level
// Unsat does not poison the session (the property path enumeration and
// soft preferences depend on).
func TestSessionSurvivesUnsatAssumptions(t *testing.T) {
	x := smt.Var("x", 8)
	sess := solver.NewSession(0)
	sess.Assert(smt.Ult(x, smt.Const(10, 8)))

	bad := sess.Lit(smt.Eq(x, smt.Const(99, 8)))
	if got := sess.Check(bad); got != solver.Unsat {
		t.Fatalf("contradictory assumption: got %v, want unsat", got)
	}
	good := sess.Lit(smt.Eq(x, smt.Const(7, 8)))
	res := sess.SolveAssuming(good)
	if res.Status != solver.Sat || res.Model["x"] != 7 {
		t.Fatalf("session poisoned after unsat assumption: %v model=%v", res.Status, res.Model)
	}
	// Plain solve still works and ignores prior assumptions.
	if got := sess.Solve(); got.Status != solver.Sat {
		t.Fatalf("plain re-solve: got %v, want sat", got.Status)
	}
	// Hard contradiction now makes the session globally unsat.
	sess.Assert(smt.Eq(x, smt.Const(42, 8)))
	if got := sess.Solve(); got.Status != solver.Unsat {
		t.Fatalf("global contradiction: got %v, want unsat", got.Status)
	}
}

// TestAssumptionOrderIndependence: the decision order of assumptions must
// not affect the verdict.
func TestAssumptionOrderIndependence(t *testing.T) {
	x := smt.Var("x", 8)
	y := smt.Var("y", 8)
	sess := solver.NewSession(0)
	sess.Assert(smt.Ult(x, y))
	a := sess.Lit(smt.Eq(x, smt.Const(3, 8)))
	b := sess.Lit(smt.Eq(y, smt.Const(200, 8)))
	if got := sess.Check(a, b); got != solver.Sat {
		t.Fatalf("a,b: %v", got)
	}
	if got := sess.Check(b, a); got != solver.Sat {
		t.Fatalf("b,a: %v", got)
	}
	c := sess.Lit(smt.Eq(y, smt.Const(2, 8)))
	if got := sess.Check(a, c); got != solver.Unsat {
		t.Fatalf("x=3 ∧ y=2 ∧ x<y should be unsat, got %v", got)
	}
	if got := sess.Check(c, a); got != solver.Unsat {
		t.Fatalf("order flipped: %v", got)
	}
}

// TestIncrementalConflictBudgetPerQuery: MaxConflicts bounds each query,
// not the session lifetime — later queries still get a budget.
func TestIncrementalConflictBudgetPerQuery(t *testing.T) {
	sess := solver.NewSession(1) // one conflict per query
	x := smt.Var("x", 8)
	sess.Assert(smt.Ult(x, smt.Const(200, 8)))
	// Run several queries; with a per-session budget the later ones
	// would all be Unknown even when trivially decidable.
	for i := 0; i < 5; i++ {
		if sess.Check(sess.Lit(smt.Eq(x, smt.Const(uint64(i), 8)))) == solver.Unknown {
			// Budget exhaustion on such a tiny query means the budget
			// leaked across queries.
			t.Fatalf("query %d returned Unknown under a per-query budget", i)
		}
	}
}
