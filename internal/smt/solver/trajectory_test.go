package solver

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gauntlet/internal/smt"
)

// The trajectory tests drive SAT and the reference solver refSAT through
// the same incremental script and require identical state after every
// call: the same status, conflict count, clause database (literal order
// included), watch lists, activities, trail and model. Equal state after
// every call means equal decisions, propagations and learnt clauses in
// between. Every script runs on a new SAT and on a reset one.

type stepOp uint8

const (
	opNewVar stepOp = iota
	opClause
	opSolve
)

// step is one call of an incremental script.
type step struct {
	op     stepOp
	lits   []Lit // clause literals, or assumptions for opSolve
	budget int   // MaxConflicts for opSolve
}

func (st step) String() string {
	switch st.op {
	case opNewVar:
		return "NewVar()"
	case opClause:
		return fmt.Sprintf("AddClause%v", st.lits)
	default:
		return fmt.Sprintf("SolveAssuming%v (MaxConflicts %d)", st.lits, st.budget)
	}
}

// solveRecord is what one solve step left in SAT.
type solveRecord struct {
	conflicts int // in this call
	varInc    float64
}

// runTrajectory runs steps on both solvers and fails at the first
// divergence. It runs them twice: on a new SAT and on a recycled one, a
// SAT that ran recycledScript and was then reset, which must behave as
// the zero SAT. It returns the new SAT's record of each solve step.
func runTrajectory(tb testing.TB, steps []step) []solveRecord {
	tb.Helper()
	recs := runTrajectoryOn(tb, "new SAT", &SAT{}, steps)
	recycled := &SAT{}
	runTrajectoryOn(tb, "SAT to recycle", recycled, recycledScript)
	recycled.reset()
	runTrajectoryOn(tb, "recycled SAT", recycled, steps)
	return recs
}

// recycledScript leaves a SAT far from the zero one: learnt clauses,
// bumped activities in the decision heap, saved phases, a conflict count
// and a budget, and a trail above the root, where a budgeted search of
// an unsatisfiable pigeonhole instance stops.
var recycledScript = append(append(newVars(30), pigeonhole(1, 6, 5)...), solveStep(20))

// runTrajectoryOn runs steps on got and a new refSAT.
func runTrajectoryOn(tb testing.TB, on string, got *SAT, steps []step) []solveRecord {
	tb.Helper()
	want := &refSAT{}
	var recs []solveRecord
	for i, st := range steps {
		switch st.op {
		case opNewVar:
			if g, w := got.NewVar(), want.NewVar(); g != w {
				tb.Fatalf("%s, step %d %v: NewVar = %d, reference %d", on, i, st, g, w)
			}
		case opClause:
			got.AddClause(st.lits...)
			want.AddClause(st.lits...)
		case opSolve:
			before := got.Conflicts
			got.MaxConflicts, want.MaxConflicts = st.budget, st.budget
			g, w := got.SolveAssuming(st.lits...), want.SolveAssuming(st.lits...)
			if g != w {
				tb.Fatalf("%s, step %d %v: status %v, reference %v", on, i, st, g, w)
			}
			recs = append(recs, solveRecord{got.Conflicts - before, got.varInc})
		}
		if err := sameObservable(got, want); err != nil {
			tb.Fatalf("%s, step %d %v: %v", on, i, st, err)
		}
		if st.op == opSolve || i == len(steps)-1 {
			if err := sameSearchState(got, want); err != nil {
				tb.Fatalf("%s, step %d %v: %v", on, i, st, err)
			}
		}
	}
	return recs
}

// sameObservable compares what callers see: conflicts, clause count and
// the full model.
func sameObservable(got *SAT, want *refSAT) error {
	if got.Conflicts != want.Conflicts {
		return fmt.Errorf("Conflicts %d, reference %d", got.Conflicts, want.Conflicts)
	}
	if got.NumClauses() != want.NumClauses() {
		return fmt.Errorf("NumClauses %d, reference %d", got.NumClauses(), want.NumClauses())
	}
	if got.NumVars() != want.NumVars() {
		return fmt.Errorf("NumVars %d, reference %d", got.NumVars(), want.NumVars())
	}
	for v := 1; v <= got.NumVars(); v++ {
		if got.ValueOf(v) != want.ValueOf(v) {
			return fmt.Errorf("ValueOf(%d) %v, reference %v", v, got.ValueOf(v), want.ValueOf(v))
		}
	}
	return nil
}

// satView is SAT's arena-backed state in refSAT's shapes: the clause
// list, clause indices for arena offsets, Lits for literal codes and
// per-variable values for per-literal ones. Offsets grow with the clause
// index, so the mapping keeps every order.
type satView struct {
	clauses [][]Lit
	watches [][]int
	assign  []int8
	reason  []int
	trail   []Lit
}

// lit maps a literal code back to its Lit.
func lit(c uint32) Lit {
	if c&1 == 1 {
		return -Lit(c >> 1)
	}
	return Lit(c >> 1)
}

func viewOf(s *SAT) satView {
	var v satView
	var offs []uint32 // offs[i] is clause i's offset
	for off := 0; off < len(s.arena); off += 1 + int(s.arena[off]) {
		offs = append(offs, uint32(off))
		cl := make([]Lit, s.arena[off])
		for i, c := range s.arena[off+1 : off+1+len(cl)] {
			cl[i] = lit(c)
		}
		v.clauses = append(v.clauses, cl)
	}
	// index maps an offset to its clause index, noClause to the
	// reference's -1 and any other word to -2, which matches nothing.
	index := func(off uint32) int {
		if off == noClause {
			return -1
		}
		if i, ok := slices.BinarySearch(offs, off); ok {
			return i
		}
		return -2
	}
	for _, ws := range s.watches {
		w := make([]int, len(ws))
		for i, off := range ws {
			w[i] = index(off)
		}
		v.watches = append(v.watches, w)
	}
	for x := range s.reason {
		// A variable's two literal codes must hold opposite values, or
		// both none; 2 matches no reference value.
		a, neg := s.vals[2*x], unassigned
		if a != unassigned {
			neg = 1 - a
		}
		if s.vals[2*x+1] != neg {
			a = 2
		}
		v.assign = append(v.assign, a)
		v.reason = append(v.reason, index(s.reason[x]))
	}
	for _, c := range s.trail {
		v.trail = append(v.trail, lit(c))
	}
	return v
}

// sameSearchState compares the solvers' internal search state.
func sameSearchState(got *SAT, want *refSAT) error {
	view := viewOf(got)
	switch {
	case got.unsat != want.unsat:
		return fmt.Errorf("unsat %v, reference %v", got.unsat, want.unsat)
	case got.varInc != want.varInc:
		return fmt.Errorf("varInc %v, reference %v", got.varInc, want.varInc)
	case got.qhead != want.qhead:
		return fmt.Errorf("qhead %d, reference %d", got.qhead, want.qhead)
	case !slices.Equal(view.trail, want.trail):
		return fmt.Errorf("trail %v, reference %v", view.trail, want.trail)
	case !slices.Equal(got.trailLim, want.trailLim):
		return fmt.Errorf("trailLim %v, reference %v", got.trailLim, want.trailLim)
	case !slices.Equal(view.assign, want.assign):
		return fmt.Errorf("assign differs")
	case !slices.Equal(got.phase, want.phase):
		return fmt.Errorf("phase differs")
	case !slices.Equal(got.level, want.level):
		return fmt.Errorf("level differs")
	case !slices.Equal(view.reason, want.reason):
		return fmt.Errorf("reason differs")
	case !slices.Equal(got.activity, want.activity):
		return fmt.Errorf("activity differs")
	case !slices.EqualFunc(view.clauses, want.clauses, slices.Equal):
		return fmt.Errorf("clause database differs")
	case !slices.EqualFunc(view.watches, want.watches, slices.Equal):
		return fmt.Errorf("watch lists differ")
	}
	return nil
}

// newVars returns n NewVar steps.
func newVars(n int) []step {
	steps := make([]step, n)
	for i := range steps {
		steps[i].op = opNewVar
	}
	return steps
}

func clauseStep(lits ...Lit) step { return step{op: opClause, lits: lits} }

func solveStep(budget int, assumps ...Lit) step {
	return step{op: opSolve, lits: assumps, budget: budget}
}

func randLit(r *rand.Rand, nVars int) Lit {
	l := Lit(1 + r.Intn(nVars))
	if r.Intn(2) == 0 {
		return l.Neg()
	}
	return l
}

// randomCNF returns m random clauses of the given width over variables
// 1..nVars.
func randomCNF(r *rand.Rand, nVars, m, width int) []step {
	steps := make([]step, m)
	for i := range steps {
		lits := make([]Lit, width)
		for j := range lits {
			lits[j] = randLit(r, nVars)
		}
		steps[i] = clauseStep(lits...)
	}
	return steps
}

// pigeonhole encodes PHP(pigeons, holes) over variables first,
// first+1, ...: every pigeon sits in a hole, no hole holds two.
func pigeonhole(first, pigeons, holes int) []step {
	v := func(p, h int) Lit { return Lit(first + p*holes + h) }
	var steps []step
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := range lits {
			lits[h] = v(p, h)
		}
		steps = append(steps, clauseStep(lits...))
	}
	for h := 0; h < holes; h++ {
		for p := 0; p < pigeons; p++ {
			for q := p + 1; q < pigeons; q++ {
				steps = append(steps, clauseStep(v(p, h).Neg(), v(q, h).Neg()))
			}
		}
	}
	return steps
}

// randomScript builds an incremental script: a random CNF near the
// satisfiability threshold, then rounds of new variables, new clauses
// (some of them unit, duplicate, tautological or mentioning fixed
// literals) and solves under assumptions, some with a conflict budget
// small enough to end in Unknown.
func randomScript(r *rand.Rand) []step {
	n := 8 + r.Intn(72)
	steps := newVars(n)
	steps = append(steps, randomCNF(r, n, int(float64(n)*(3.6+r.Float64())), 3)...)
	for round := 0; round < 4+r.Intn(12); round++ {
		switch r.Intn(4) {
		case 0:
			k := 1 + r.Intn(3)
			steps = append(steps, newVars(k)...)
			n += k
		case 1:
			lits := make([]Lit, 1+r.Intn(5))
			for i := range lits {
				lits[i] = randLit(r, n)
			}
			if r.Intn(4) == 0 {
				lits = append(lits, lits[0]) // duplicate
			}
			if r.Intn(6) == 0 {
				lits = append(lits, lits[0].Neg()) // tautology
			}
			steps = append(steps, clauseStep(lits...))
		}
		assumps := make([]Lit, r.Intn(6))
		for i := range assumps {
			assumps[i] = randLit(r, n)
		}
		budget := 0
		if r.Intn(3) == 0 {
			budget = 1 + r.Intn(40)
		}
		steps = append(steps, solveStep(budget, assumps...))
	}
	return steps
}

// decodeScript turns fuzz input into a script. The first byte sets the
// initial variable count; each following op byte selects a call, and the
// bytes after it give its arguments. Running out of input ends the
// script after a final solve.
func decodeScript(data []byte) []step {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	n := 2 + next()%62
	steps := newVars(n)
	lit := func() Lit {
		b := next()
		l := Lit(1 + (b>>1)%n)
		if b&1 == 1 {
			return l.Neg()
		}
		return l
	}
	for pos < len(data) && len(steps) < 4096 {
		switch op := next(); op % 6 {
		case 0:
			steps = append(steps, step{op: opNewVar})
			n++
		case 1: // one explicit clause
			lits := make([]Lit, next()%6)
			for i := range lits {
				lits[i] = lit()
			}
			steps = append(steps, clauseStep(lits...))
		case 2: // a block of random 3-clauses from a seeded generator
			m := 1 + next()%(4*n)
			r := rand.New(rand.NewSource(int64(next()<<8 | next())))
			steps = append(steps, randomCNF(r, n, m, 3)...)
		default: // solve under assumptions, perhaps with a budget
			assumps := make([]Lit, next()%6)
			for i := range assumps {
				assumps[i] = lit()
			}
			steps = append(steps, solveStep(next()%64, assumps...))
		}
	}
	return append(steps, solveStep(0))
}

func TestSATTrajectory(t *testing.T) {
	edge := append(newVars(4),
		clauseStep(1, 1, 2),   // duplicate literal
		clauseStep(3, -3, 4),  // tautology
		clauseStep(-4),        // unit, fixes 4 false at the root
		clauseStep(4, 2, 3),   // root-false literal dropped
		solveStep(0),          // leaves the trail above the root
		clauseStep(-2, -3, 1), // added above the root: backtracks first
		solveStep(0, -1),
		step{op: opNewVar},
		clauseStep(5, -1),
		solveStep(0, -5, 2),
		clauseStep(), // empty clause: unsat from here on
		solveStep(0),
		clauseStep(1, 2),
	)
	r := rand.New(rand.NewSource(7))
	incremental := append(newVars(120), randomCNF(r, 120, 500, 3)...)
	for i := 0; i < 40; i++ {
		incremental = append(incremental, solveStep(0, randLit(r, 120), randLit(r, 120), randLit(r, 120)))
		if i%5 == 4 {
			incremental = append(incremental, randomCNF(r, 120, 4, 3)...)
		}
	}
	budgets := append(newVars(42), pigeonhole(1, 7, 6)...)
	for _, budget := range []int{1, 10, 150, 400, 0} {
		budgets = append(budgets, solveStep(budget), solveStep(budget, 1, -8))
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"edge-cases", edge},
		{"php-6-5", append(append(newVars(30), pigeonhole(1, 6, 5)...), solveStep(0))},
		{"random-3sat-incremental", incremental},
		{"budgets-end-in-unknown", budgets},
		{"blasted-descent", descentScript(120)},
		{"blasted-distributivity-5", distributivityScript(5)},
		{"blasted-distributivity-6", distributivityScript(6)},
		{"blasted-distributivity-7", distributivityScript(7)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runTrajectory(t, c.steps) })
	}
	t.Run("random-scripts", func(t *testing.T) {
		scripts := 400
		if testing.Short() {
			scripts = 50
		}
		r := rand.New(rand.NewSource(13))
		for range scripts {
			runTrajectory(t, randomScript(r))
		}
	})
}

// distributivityScript blasts the miter (a+b)·c ≠ a·c+b·c over w-bit
// variables and solves it once under a 3000-conflict budget. The
// multipliers make the search conflict-heavy and its learnt clauses long,
// so the arena grows by many attaches between the state comparisons.
func distributivityScript(w int) []step {
	a, b, c := smt.Var("a", w), smt.Var("b", w), smt.Var("c", w)
	bl := NewBlaster()
	bl.Assert(smt.Ne(smt.Mul(smt.Add(a, b), c), smt.Add(smt.Mul(a, c), smt.Mul(b, c))))
	return append(cnfScript(bl.SAT()), solveStep(3000))
}

// TestSATTrajectoryRescale crosses the 1e100 activity rescale inside one
// call. varInc restarts at 1 on every call and grows by 1/0.95 per
// conflict, so a call needs about 4,500 conflicts to rescale; after it,
// rounding may have turned distinct activities into ties, which the
// decision heap must break by index exactly as the scan does.
func TestSATTrajectoryRescale(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 170
	steps := append(newVars(n), randomCNF(r, n, 4*n+n/4, 3)...)
	steps = append(steps, solveStep(0), solveStep(0, 1, -2, 3))
	recs := runTrajectory(t, steps)
	rescaled := false
	for _, rec := range recs {
		// Without a rescale varInc ends near (1/0.95)^conflicts; one
		// rescale multiplies it by 1e-100.
		if math.Log10(rec.varInc) < float64(rec.conflicts)*math.Log10(1/0.95)-50 {
			rescaled = true
		}
	}
	if !rescaled {
		t.Fatalf("no call crossed the activity rescale: %+v", recs)
	}
}

// TestDecideAfterRescaleTies pins the heap rebuild after the rescale.
// Var 2 outranks var 1 until a bump of the decided var 3 rescales both
// to zero; from then on they tie, and the scan takes tied variables in
// index order.
func TestDecideAfterRescaleTies(t *testing.T) {
	got, want := &SAT{}, &refSAT{}
	for i := 0; i < 3; i++ {
		got.NewVar()
		want.NewVar()
	}
	for _, act := range [][]float64{got.activity, want.activity} {
		act[1], act[2], act[3] = 1e-250, 2e-250, 1
	}
	got.rank()
	for {
		g, w := got.decide(), want.decide()
		if g != w {
			t.Fatalf("decide = %d, reference %d (activities %v)", g, w, got.activity)
		}
		if g == 0 {
			return
		}
		got.enqueue(g.index(), noClause)
		want.enqueue(g, -1)
		if g.Var() == 3 {
			got.varInc, want.varInc = 2e100, 2e100
			got.bumpVar(3)
			want.bumpVar(3)
			if got.activity[1] != 0 || got.activity[2] != 0 {
				t.Fatalf("activities %v: want vars 1 and 2 rounded to 0", got.activity)
			}
		}
	}
}

// FuzzSATTrajectory runs decoded scripts on both solvers; its seed corpus
// is under testdata/fuzz/FuzzSATTrajectory.
func FuzzSATTrajectory(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runTrajectory(t, decodeScript(data))
	})
}
