package solver

import "fmt"

// refSAT is the CDCL solver as it was before decisions left the linear
// scan and watch lists were compacted in place, kept verbatim as the
// trajectory reference: SAT must make exactly the decisions,
// propagations, learnt clauses and models refSAT makes. The zero value is
// ready to use.
type refSAT struct {
	nVars    int
	clauses  [][]Lit // problem and learnt clauses
	watches  [][]int // lit index → clause indices watching it
	assign   []int8  // var → 0 false, 1 true, -1 unassigned
	level    []int   // var → decision level
	reason   []int   // var → clause index or -1
	phase    []int8  // var → saved phase
	activity []float64
	varInc   float64
	trail    []Lit
	trailLim []int
	qhead    int
	unsat    bool // a top-level conflict was added

	// Conflicts counts total conflicts across all Solve calls
	// (statistics and restart policy).
	Conflicts int
	// MaxConflicts bounds each Solve call (the budget is per call, so an
	// incremental session does not starve later queries); 0 means
	// unbounded. Exceeding it yields Unknown.
	MaxConflicts int
	// Stop is the wall-clock watchdog hook: when set it is polled at
	// every conflict (next to the MaxConflicts check) and at every
	// restart, and a true return aborts the search with Unknown — the
	// same explicit degradation as conflict-budget exhaustion, so a
	// deadline can never hang a query, only weaken its verdict.
	// solver.Session wires a context.Context's Err() here; the check is
	// conflict-paced because conflict-free work between two conflicts is
	// polynomially bounded, so the poll adds no inner-loop cost.
	Stop func() bool

	// assumps holds the current solve-under-assumptions literals; they
	// are decided first (in order) and a falsified assumption makes the
	// query Unsat without touching the clause database.
	assumps []Lit

	seen []bool // scratch for analyze
}

// NewVar allocates a fresh variable and returns its (positive) index.
// Variables are 1-based; index 0 of the internal arrays is padding.
func (s *refSAT) NewVar() int {
	if s.nVars == 0 && len(s.assign) == 0 {
		s.assign = append(s.assign, unassigned)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, -1)
		s.phase = append(s.phase, 0)
		s.activity = append(s.activity, 0)
		s.seen = append(s.seen, false)
		s.watches = append(s.watches, nil, nil)
	}
	s.nVars++
	s.assign = append(s.assign, unassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.phase = append(s.phase, 0)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	return s.nVars
}

func (s *refSAT) value(l Lit) int8 {
	a := s.assign[l.Var()]
	if a == unassigned {
		return unassigned
	}
	if l < 0 {
		return 1 - a
	}
	return a
}

// AddClause adds a clause of literals. Empty clauses (or clauses that
// simplify to empty) make the instance trivially unsatisfiable. Adding
// clauses between Solve calls is allowed: the solver first retracts any
// in-flight decisions back to the root level.
func (s *refSAT) AddClause(lits ...Lit) {
	if s.unsat {
		return
	}
	if s.decisionLevel() > 0 {
		s.backtrack(0)
	}
	// Simplify: drop duplicate/false literals, detect tautologies.
	var cl []Lit
	seen := map[Lit]bool{}
	for _, l := range lits {
		if l.Var() > s.nVars || l == 0 {
			panic(fmt.Sprintf("sat: bad literal %d", l))
		}
		if seen[l] {
			continue
		}
		if seen[l.Neg()] {
			return // tautology
		}
		// Top-level values.
		if s.level[l.Var()] == 0 {
			switch s.value(l) {
			case 1:
				return // already satisfied
			case 0:
				continue // already false at top level
			}
		}
		seen[l] = true
		cl = append(cl, l)
	}
	switch len(cl) {
	case 0:
		s.unsat = true
		return
	case 1:
		if !s.enqueue(cl[0], -1) {
			s.unsat = true
		}
		if s.propagate() >= 0 {
			s.unsat = true
		}
		return
	}
	s.attach(cl)
}

func (s *refSAT) attach(cl []Lit) {
	idx := len(s.clauses)
	s.clauses = append(s.clauses, cl)
	s.watches[cl[0].index()] = append(s.watches[cl[0].index()], idx)
	s.watches[cl[1].index()] = append(s.watches[cl[1].index()], idx)
}

func (s *refSAT) enqueue(l Lit, reason int) bool {
	switch s.value(l) {
	case 1:
		return true
	case 0:
		return false
	}
	v := l.Var()
	if l > 0 {
		s.assign[v] = 1
	} else {
		s.assign[v] = 0
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = reason
	s.trail = append(s.trail, l)
	return true
}

func (s *refSAT) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; returns the index of a conflicting
// clause or -1.
func (s *refSAT) propagate() int {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		falseLit := p.Neg()
		ws := s.watches[falseLit.index()]
		var kept []int
		for wi := 0; wi < len(ws); wi++ {
			ci := ws[wi]
			cl := s.clauses[ci]
			// Ensure the false literal is at cl[1].
			if cl[0] == falseLit {
				cl[0], cl[1] = cl[1], cl[0]
			}
			// Satisfied by the other watch?
			if s.value(cl[0]) == 1 {
				kept = append(kept, ci)
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(cl); k++ {
				if s.value(cl[k]) != 0 {
					cl[1], cl[k] = cl[k], cl[1]
					s.watches[cl[1].index()] = append(s.watches[cl[1].index()], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflict.
			kept = append(kept, ci)
			if !s.enqueue(cl[0], ci) {
				// Conflict: restore remaining watches and report.
				kept = append(kept, ws[wi+1:]...)
				s.watches[falseLit.index()] = kept
				return ci
			}
		}
		s.watches[falseLit.index()] = kept
	}
	return -1
}

func (s *refSAT) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// analyze derives a 1-UIP learnt clause from a conflict; returns the
// clause and the backtrack level.
func (s *refSAT) analyze(conflict int) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	reason := conflict

	for {
		cl := s.clauses[reason]
		start := 0
		if p != 0 {
			start = 1 // skip the asserting literal slot of the reason
		}
		for _, q := range cl[start:] {
			if p != 0 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal on the trail to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Neg()
			break
		}
		reason = s.reason[v]
		idx--
	}
	for _, l := range learnt[1:] {
		s.seen[l.Var()] = false
	}

	// Backtrack level: highest level among learnt[1:].
	blevel := 0
	swapIdx := -1
	for i, l := range learnt[1:] {
		if lv := s.level[l.Var()]; lv > blevel {
			blevel = lv
			swapIdx = i + 1
		}
	}
	if swapIdx > 0 {
		learnt[1], learnt[swapIdx] = learnt[swapIdx], learnt[1]
	}
	return learnt, blevel
}

func (s *refSAT) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v]
		s.assign[v] = unassigned
		s.reason[v] = -1
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// decide picks the unassigned variable with the highest activity.
func (s *refSAT) decide() Lit {
	best, bestAct := 0, -1.0
	for v := 1; v <= s.nVars; v++ {
		if s.assign[v] == unassigned && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	if best == 0 {
		return 0
	}
	if s.phase[best] == 1 {
		return Lit(best)
	}
	return Lit(-best)
}

// Solve runs the CDCL search. The solver is incremental: Solve may be
// called repeatedly, with clauses added in between; learnt clauses,
// variable activities and saved phases carry over from call to call.
func (s *refSAT) Solve() Status {
	return s.SolveAssuming()
}

// SolveAssuming runs the CDCL search with the given literals assumed true
// for the duration of this call only. Unsat means "unsatisfiable under
// the assumptions" — the clause database is untouched, so a later call
// with different assumptions can still be Sat. This is how soft
// preference constraints are decided without re-blasting the formula.
func (s *refSAT) SolveAssuming(assumps ...Lit) Status {
	if s.unsat {
		return Unsat
	}
	s.backtrack(0) // retract the previous call's trail
	s.assumps = assumps
	defer func() { s.assumps = nil }()

	s.varInc = 1.0
	restart := 1
	budget := 100 * luby(restart)
	conflictsHere := 0
	startConflicts := s.Conflicts

	if s.propagate() >= 0 {
		s.unsat = true // conflict at the root level is global
		return Unsat
	}
	for {
		conflict := s.propagate()
		if conflict >= 0 {
			s.Conflicts++
			conflictsHere++
			if s.MaxConflicts > 0 && s.Conflicts-startConflicts > s.MaxConflicts {
				return Unknown
			}
			if s.Stop != nil && s.Stop() {
				return Unknown
			}
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			learnt, blevel := s.analyze(conflict)
			s.backtrack(blevel)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], -1) {
					s.unsat = true
					return Unsat
				}
			} else {
				s.attach(learnt)
				s.enqueue(learnt[0], len(s.clauses)-1)
			}
			s.varInc /= 0.95 // VSIDS decay
			continue
		}
		if conflictsHere >= budget {
			// Restart (assumptions are re-established by the decision
			// loop below).
			if s.Stop != nil && s.Stop() {
				return Unknown
			}
			conflictsHere = 0
			restart++
			budget = 100 * luby(restart)
			s.backtrack(0)
			continue
		}
		// Assumptions are decided first, in order, one per level.
		next := Lit(0)
		for next == 0 && s.decisionLevel() < len(s.assumps) {
			p := s.assumps[s.decisionLevel()]
			switch s.value(p) {
			case 1:
				// Already implied: open a dummy level to keep the
				// level ↔ assumption-index correspondence.
				s.trailLim = append(s.trailLim, len(s.trail))
			case 0:
				return Unsat // assumption falsified under the others
			default:
				next = p
			}
		}
		if next == 0 {
			next = s.decide()
			if next == 0 {
				return Sat // all variables assigned
			}
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(next, -1)
	}
}

// ValueOf returns the model value of a variable after Sat.
func (s *refSAT) ValueOf(v int) bool { return s.assign[v] == 1 }

// NumVars returns the number of allocated variables.
func (s *refSAT) NumVars() int { return s.nVars }

// NumClauses returns the number of clauses (problem + learnt).
func (s *refSAT) NumClauses() int { return len(s.clauses) }
