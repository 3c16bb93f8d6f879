package solver

import (
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"gauntlet/internal/smt"
)

// descentFormula blasts a formula shaped like test generation's: packet
// fields through a few arithmetic stages, parser-style base constraints,
// branch conditions and preference literals (non-zero, upper half of the
// range) on sess. It returns the condition and preference literals;
// nothing has been solved yet.
func descentFormula(sess *Session) (conds, prefs []Lit) {
	k := smt.Const
	a, b := smt.Var("pkt.a", 32), smt.Var("pkt.b", 32)
	c, d := smt.Var("pkt.c", 16), smt.Var("pkt.d", 16)
	e, f := smt.Var("pkt.e", 8), smt.Var("pkt.f", 8)
	sess.Assert(smt.Ne(e, k(0xff, 8)), smt.Ult(c, k(0x9000, 16)))
	for _, cond := range []*smt.Term{
		smt.Eq(smt.Add(a, b), k(0x12345678, 32)),
		smt.Ult(smt.Mul(c, k(3, 16)), d),
		smt.Eq(smt.Extract(a, 7, 0), e),
		smt.Ult(smt.BVXor(b, smt.Concat(c, d)), a),
		smt.Eq(smt.BVAnd(f, k(0x0f, 8)), k(3, 8)),
		smt.Ule(smt.Add(smt.Concat(e, f), c), d),
		smt.Ne(smt.Mul(e, f), k(0x42, 8)),
		smt.Ult(smt.Extract(b, 31, 16), smt.Add(c, d)),
		smt.Eq(smt.Extract(smt.Mul(a, k(5, 32)), 15, 0), d),
		smt.Ule(f, e),
	} {
		conds = append(conds, sess.Lit(cond))
	}
	for _, x := range []*smt.Term{a, b, c, d, e, f} {
		prefs = append(prefs,
			sess.Lit(smt.Ne(x, k(0, x.W))),
			sess.Lit(smt.Uge(x, k(1<<uint(x.W-1), x.W))))
	}
	return conds, prefs
}

// descent enumerates branch polarities depth-first the way test
// generation enumerates paths: it probes each polarity under the prefix
// fixed so far, descends into the satisfiable ones and, at a leaf,
// greedily keeps each preference literal that stays satisfiable. It stops
// after maxCalls solves and returns the number made. solve must not keep
// its argument.
func descent(solve func(assumps []Lit) Status, conds, prefs []Lit, maxCalls int) int {
	calls := 0
	call := func(assumps []Lit) Status {
		calls++
		return solve(assumps)
	}
	var walk func(idx int, fixed []Lit)
	walk = func(idx int, fixed []Lit) {
		if idx == len(conds) {
			if calls >= maxCalls || call(fixed) != Sat {
				return
			}
			kept := slices.Clone(fixed)
			for _, p := range prefs {
				if calls >= maxCalls {
					return
				}
				if call(append(kept, p)) == Sat {
					kept = append(kept, p)
				}
			}
			return
		}
		for _, l := range []Lit{conds[idx], conds[idx].Neg()} {
			if calls >= maxCalls {
				return
			}
			next := append(slices.Clone(fixed), l)
			if call(next) == Sat {
				walk(idx+1, next)
			}
		}
	}
	walk(0, nil)
	return calls
}

// cnfScript returns the script steps that rebuild an unsolved SAT
// instance: its variables, its root-level units, then its clauses.
func cnfScript(sat *SAT) []step {
	steps := newVars(sat.NumVars())
	view := viewOf(sat)
	for _, l := range view.trail {
		steps = append(steps, clauseStep(l))
	}
	for _, cl := range view.clauses {
		steps = append(steps, clauseStep(cl...))
	}
	return steps
}

// descentScript replays descentFormula's CNF and maxCalls descent solves
// as a trajectory script. The solves follow the verdicts SAT gives.
func descentScript(maxCalls int) []step {
	sess := NewSession(0)
	conds, prefs := descentFormula(sess)
	sat := sess.b.SAT()
	steps := cnfScript(sat)
	descent(func(assumps []Lit) Status {
		steps = append(steps, solveStep(0, slices.Clone(assumps)...))
		return sat.SolveAssuming(assumps...)
	}, conds, prefs, maxCalls)
	return steps
}

// TestSolveAssumingSoftModel checks that SolveAssumingSoft, which builds
// one model from the last satisfiable trial, returns what building a
// model after every trial would: the same status, conflicts and model.
func TestSolveAssumingSoftModel(t *testing.T) {
	got, want := NewSession(0), NewSession(0)
	conds, prefs := descentFormula(got)
	descentFormula(want)
	groups := make([][]Lit, len(prefs))
	for i, p := range prefs {
		groups[i] = []Lit{p}
	}
	for i := range conds {
		fixed := []Lit{conds[i], conds[(i+3)%len(conds)].Neg()}
		res := want.SolveAssuming(fixed...)
		if res.Status == Sat {
			kept := slices.Clone(fixed)
			for _, g := range groups {
				trial := want.SolveAssuming(append(kept, g...)...)
				res.Conflicts += trial.Conflicts
				if trial.Status == Sat {
					kept = append(kept, g...)
					res.Model = trial.Model
				}
			}
		}
		soft := got.SolveAssumingSoft(fixed, groups)
		if soft.Status != res.Status || soft.Conflicts != res.Conflicts || !maps.Equal(soft.Model, res.Model) {
			t.Fatalf("fixed %v: SolveAssumingSoft = %+v, per-trial models give %+v", fixed, soft, res)
		}
	}
}

// BenchmarkSolveAssumingDescent measures the solver as test generation
// drives it: one blasted formula, then about 200 status-only calls under
// assumptions that descend a path tree, on a session that a closed one
// hands its storage to. It reports ns/call over the solves alone;
// blasting is excluded.
func BenchmarkSolveAssumingDescent(b *testing.B) {
	const maxCalls = 200
	var solving time.Duration
	calls := 0
	b.ReportAllocs()
	for b.Loop() {
		sess := NewSession(0)
		conds, prefs := descentFormula(sess)
		start := time.Now()
		calls += descent(func(assumps []Lit) Status {
			return sess.Check(assumps...)
		}, conds, prefs, maxCalls)
		solving += time.Since(start)
		sess.Close()
	}
	b.ReportMetric(float64(solving.Nanoseconds())/float64(calls), "ns/call")
	b.ReportMetric(float64(calls)/float64(b.N), "calls/op")
}

// TestRecycledSessionDescent runs the descent on a new session and on a
// recycled one, whose storage first searched a distributivity miter and
// was then reset: blasting must give the same literals and every call the
// same Result, status, conflicts and model.
func TestRecycledSessionDescent(t *testing.T) {
	used := NewSession(3000)
	x, y, z := smt.Var("x", 6), smt.Var("y", 6), smt.Var("z", 6)
	used.Assert(smt.Ne(smt.Mul(smt.Add(x, y), z), smt.Add(smt.Mul(x, z), smt.Mul(y, z))))
	used.Solve()
	var results [2][]Result
	var lits [2][]Lit
	EmptyPool()
	for i, sess := range []*Session{NewSession(0), Recycled(used, 0)} {
		conds, prefs := descentFormula(sess)
		lits[i] = append(conds, prefs...)
		descent(func(assumps []Lit) Status {
			res := sess.SolveAssuming(assumps...)
			results[i] = append(results[i], res)
			return res.Status
		}, conds, prefs, 200)
	}
	if !slices.Equal(lits[0], lits[1]) {
		t.Fatalf("recycled session blasted literals %v, new session %v", lits[1], lits[0])
	}
	if len(results[0]) != len(results[1]) {
		t.Fatalf("recycled session made %d calls, new session %d", len(results[1]), len(results[0]))
	}
	for i, want := range results[0] {
		got := results[1][i]
		if got.Status != want.Status || got.Conflicts != want.Conflicts || !maps.Equal(got.Model, want.Model) {
			t.Fatalf("call %d: recycled session %+v, new session %+v", i, got, want)
		}
	}
}

// TestCloseDropsOversizedSession: Close pools a session's storage only
// while its clause arena holds at most maxPooledArena words, so the next
// NewSession never inherits a larger arena. A session at the cap is
// handed on: the pool gives back what Close put there unless a GC runs
// in between or the race detector drops the put, so it must come back
// within a few tries.
func TestCloseDropsOversizedSession(t *testing.T) {
	EmptyPool()
	closeWith := func(words int) *Blaster {
		s := NewSession(0)
		b := s.b
		b.sat.arena = make([]uint32, 0, words)
		s.Close()
		return b
	}
	next := func() *Blaster {
		s := NewSession(0)
		defer s.Close()
		return s.b
	}
	for range 20 {
		if big := closeWith(maxPooledArena + 1); next() == big {
			t.Fatalf("NewSession reused a session whose arena holds more than %d words", maxPooledArena)
		}
	}
	reused := false
	for range 20 {
		small := closeWith(maxPooledArena)
		reused = reused || next() == small
	}
	if !reused {
		t.Fatal("NewSession never reused a session at the cap: the pool hands nothing on")
	}
}

// TestSessionsConcurrent runs the descent on sessions that goroutines
// open and close at the same time, so pooled storage passes between
// them; every run must return the results of a run alone. Run it with
// -race.
func TestSessionsConcurrent(t *testing.T) {
	run := func() []Result {
		sess := NewSession(0)
		defer sess.Close()
		conds, prefs := descentFormula(sess)
		var out []Result
		descent(func(assumps []Lit) Status {
			res := sess.SolveAssuming(assumps...)
			out = append(out, res)
			return res.Status
		}, conds, prefs, 60)
		return out
	}
	want := run()
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				got := run()
				if !slices.EqualFunc(got, want, func(a, b Result) bool {
					return a.Status == b.Status && a.Conflicts == b.Conflicts && maps.Equal(a.Model, b.Model)
				}) {
					errs <- "a concurrent run's results differ from a run alone"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
