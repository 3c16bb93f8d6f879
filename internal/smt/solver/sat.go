// Package solver decides satisfiability of smt terms. It contains a CDCL
// SAT solver (watched literals, 1-UIP clause learning, VSIDS-style
// activities, Luby restarts, phase saving) and a Tseitin bit-blaster that
// reduces QF_BV terms to CNF over it. Together they replace the Z3 calls
// of the paper's implementation.
//
// The CDCL search follows a fixed trajectory. Test generation's packets
// are SAT models, so every decision, propagation, learnt clause, conflict
// count and model the solver produces reaches the test suites, the
// findings and their digests. A change to the solver may make a step
// cheaper, but it must not change which step comes next; the trajectory
// tests run the solver against a verbatim copy of the original
// linear-scan solver and require identical state after every call. That
// contract rules out the usual search-altering optimizations:
//
//   - blocking literals skip a clause without the watch swap, which changes
//     the clause's literal order and so later watches and learnt clauses;
//   - learnt-clause deletion changes which clauses propagate;
//   - reordering a clause's literals or a watch list changes which
//     implication is found first, and so each variable's reason;
//   - trail reuse across restarts re-creates assignments in a different
//     propagation order, with different reasons.
//
// What the solver does instead is cost-only. Decisions follow the order
// (activity descending, index ascending), which ranks first exactly the
// variable a linear scan for the strictly greatest activity picks. A
// cursor walks that order over a sorted array while no activity changes,
// as in test generation's conflict-free calls; from a call's first
// conflict on, a binary heap keeps it. Watch lists are compacted in place,
// in order, during propagation.
//
// The clause database is one flat arena of uint32 words. A clause is a
// length word followed by its literals, stored as codes: 2v for v and
// 2v+1 for ¬v (Lit.index), so a code's negation is code^1 and its variable
// code>>1. Problem and learnt clauses are appended in the order they are
// added, and a clause is named by the offset of its length word: watch
// lists and reasons hold offsets. Offsets grow with the order of addition,
// so reading the arena front to back gives the clause list, in the same
// order and with the same literal order, that the original solver kept.
// A watch visit reads the clause's words directly, one dependent load
// where a slice of slices needs two, and the words of one clause share
// cache lines. Values are kept per literal code, set for both polarities
// on assignment and cleared on backtrack, so a literal's value is one
// load. analyze builds each learnt clause in a reused buffer that attach
// copies into the arena, so a conflict allocates only when the arena or
// a watch list grows. Growing may move the arena: no sub-slice of it is
// held across an attach.
//
// A closed Session's SAT is reused (see Session.Close), and reuse keeps
// the contract too. reset truncates every array, inner watch lists
// included, to length 0 and zeroes every other field, so the reset SAT
// is the zero SAT with spare capacity. The search reads an array only
// below its length, which NewVar, AddClause and attach grow by appending
// exactly what they append to an empty array; capacity decides only
// whether an append allocates. A reset SAT therefore makes every step a
// new one makes, and the trajectory tests run every script on both.
package solver

import (
	"fmt"
	"slices"
)

// Lit is a literal: positive v or negative -v for variable v >= 1.
type Lit int

// Neg returns the negation of the literal.
func (l Lit) Neg() Lit { return -l }

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// index maps a literal to its code, the dense index the solver stores it
// under: 2v for positive, 2v+1 for negative.
func (l Lit) index() uint32 {
	if l > 0 {
		return 2 * uint32(l)
	}
	return 2*uint32(-l) + 1
}

// Status is a solver verdict.
type Status int

// Solver verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String renders the verdict.
func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

const unassigned int8 = -1

// noClause is an offset no clause has: the reason of a decision, an
// assumption or a root-level unit, and propagate's "no conflict".
const noClause = ^uint32(0)

// SAT is a CDCL SAT solver. The zero value is ready to use.
type SAT struct {
	nVars    int
	arena    []uint32   // every clause: a length word, then literal codes
	nClauses int        // problem and learnt clauses in the arena
	watches  [][]uint32 // literal code → offsets of the clauses watching it
	vals     []int8     // literal code → 1 true, 0 false, -1 unassigned
	level    []int      // var → decision level
	reason   []uint32   // var → offset of the implying clause, or noClause
	phase    []int8     // var → saved phase
	activity []float64
	varInc   float64
	trail    []uint32 // codes of the assigned literals, in order
	trailLim []int
	qhead    int
	unsat    bool // a top-level conflict was added

	// Decisions follow the order before defines, kept in one of two
	// forms. While no activity has changed since ranked was sorted, which
	// holds for nearly every call test generation makes, decide walks
	// ranked with a cursor: every variable in ranked[:cursor] is assigned,
	// so the first unassigned one from there on is the pick, and a whole
	// call costs one pass. A call's first bump moves the unassigned
	// variables into order, a binary heap that follows activity changes;
	// assigned variables leave it lazily, when decide pops them. The next
	// call sorts ranked again.
	ranked   []int // every variable in decision order, unless unranked
	rankOf   []int // var → index in ranked
	cursor   int
	unranked bool  // activities changed since ranked was sorted
	order    []int // the heap while unranked, else empty
	orderPos []int // var → index in order, or -1

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

	// lits is the clause under construction, AddClause's simplified
	// clause or analyze's learnt one; attach copies it into the arena.
	lits []uint32

	// stamp marks, by literal code, the literals AddClause has kept for
	// the clause numbered stampGen, so simplifying a clause allocates
	// nothing.
	stamp    []uint32
	stampGen uint32
}

// NewVar allocates a fresh variable and returns its (positive) index.
// Variables are 1-based; index 0 of the internal arrays is padding.
func (s *SAT) NewVar() int {
	if s.nVars == 0 && len(s.vals) == 0 {
		s.vals = append(s.vals, unassigned, unassigned)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, noClause)
		s.phase = append(s.phase, 0)
		s.activity = append(s.activity, 0)
		s.seen = append(s.seen, false)
		s.addWatchLists()
		s.orderPos = append(s.orderPos, -1)
		s.rankOf = append(s.rankOf, 0)
		s.stamp = append(s.stamp, 0, 0)
	}
	s.nVars++
	s.vals = append(s.vals, unassigned, unassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noClause)
	s.phase = append(s.phase, 0)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.addWatchLists()
	s.orderPos = append(s.orderPos, -1)
	s.rankOf = append(s.rankOf, len(s.ranked))
	s.stamp = append(s.stamp, 0, 0)
	if s.unranked {
		s.orderPush(s.nVars)
	} else {
		// Activities are never negative, so activity 0 and the highest
		// index come last.
		s.ranked = append(s.ranked, s.nVars)
	}
	return s.nVars
}

// addWatchLists appends the watch lists of a new variable's two literal
// codes. Lists a reset left past the end are taken back, empty but with
// their storage.
func (s *SAT) addWatchLists() {
	if n := len(s.watches); n+2 <= cap(s.watches) {
		s.watches = s.watches[:n+2]
		return
	}
	s.watches = append(s.watches, nil, nil)
}

// reset returns s to the zero SAT, keeping the storage of its arrays,
// inner watch lists included, for the variables and clauses of the next
// instance. Every array is truncated to length 0, so the next NewVar or
// attach appends exactly what it would append to an empty one.
func (s *SAT) reset() {
	ws := s.watches[:cap(s.watches)]
	for i := range ws {
		ws[i] = ws[i][:0]
	}
	*s = SAT{
		arena:    s.arena[:0],
		watches:  ws[:0],
		vals:     s.vals[:0],
		level:    s.level[:0],
		reason:   s.reason[:0],
		phase:    s.phase[:0],
		activity: s.activity[:0],
		trail:    s.trail[:0],
		trailLim: s.trailLim[:0],
		ranked:   s.ranked[:0],
		rankOf:   s.rankOf[:0],
		order:    s.order[:0],
		orderPos: s.orderPos[:0],
		seen:     s.seen[:0],
		lits:     s.lits[:0],
		stamp:    s.stamp[:0],
	}
}

// badLit panics on a literal of no allocated variable. AddClause and
// SolveAssuming check every literal: code 1 is variable 0's padding and
// reads as unassigned, so an unchecked 0 assumption would be decided at
// the same level forever.
func badLit(l Lit) { panic(fmt.Sprintf("sat: bad literal %d", l)) }

// AddClause adds a clause of literals. Empty clauses (or clauses that
// simplify to empty) make the instance trivially unsatisfiable. Adding
// clauses between Solve calls is allowed: the solver first retracts any
// in-flight decisions back to the root level.
func (s *SAT) AddClause(lits ...Lit) {
	if s.unsat {
		return
	}
	if s.decisionLevel() > 0 {
		s.backtrack(0)
	}
	s.stampGen++
	if s.stampGen == 0 { // wrapped: no stale mark may equal a live one
		clear(s.stamp)
		s.stampGen = 1
	}
	// Simplify: drop duplicate/false literals, detect tautologies.
	s.lits = s.lits[:0]
	for _, l := range lits {
		if l == 0 || l.Var() > s.nVars {
			badLit(l)
		}
		c := l.index()
		if s.stamp[c] == s.stampGen {
			continue
		}
		if s.stamp[c^1] == s.stampGen {
			return // tautology
		}
		// Top-level values.
		if s.level[c>>1] == 0 {
			switch s.vals[c] {
			case 1:
				return // already satisfied
			case 0:
				continue // already false at top level
			}
		}
		s.stamp[c] = s.stampGen
		s.lits = append(s.lits, c)
	}
	switch len(s.lits) {
	case 0:
		s.unsat = true
		return
	case 1:
		if !s.enqueue(s.lits[0], noClause) {
			s.unsat = true
		}
		if s.propagate() != noClause {
			s.unsat = true
		}
		return
	}
	s.attach(s.lits)
}

// attach appends a clause of at least two literal codes to the arena,
// watches its first two literals and returns its offset.
func (s *SAT) attach(cl []uint32) uint32 {
	if uint64(len(s.arena))+1+uint64(len(cl)) >= uint64(noClause) {
		panic("sat: clause arena exceeds its 32-bit offsets")
	}
	off := uint32(len(s.arena))
	s.arena = append(s.arena, uint32(len(cl)))
	s.arena = append(s.arena, cl...)
	s.nClauses++
	s.watches[cl[0]] = append(s.watches[cl[0]], off)
	s.watches[cl[1]] = append(s.watches[cl[1]], off)
	return off
}

func (s *SAT) enqueue(c, reason uint32) bool {
	switch s.vals[c] {
	case 1:
		return true
	case 0:
		return false
	}
	s.vals[c], s.vals[c^1] = 1, 0
	v := c >> 1
	s.level[v] = s.decisionLevel()
	s.reason[v] = reason
	s.trail = append(s.trail, c)
	return true
}

func (s *SAT) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; returns the offset of a conflicting
// clause or noClause. Each watch list is compacted in place, keeping its
// order: a clause that moves its watch is appended to the new literal's
// list, which is never the list being scanned (the new watch is not
// false).
func (s *SAT) propagate() uint32 {
	arena, vals := s.arena, s.vals
	for s.qhead < len(s.trail) {
		falseLit := s.trail[s.qhead] ^ 1
		s.qhead++
		ws := s.watches[falseLit]
		kept := 0
	next:
		for i, off := range ws {
			cl := arena[off+1 : off+1+arena[off]]
			// Ensure the false literal is at cl[1].
			if cl[0] == falseLit {
				cl[0], cl[1] = cl[1], cl[0]
			}
			// Satisfied by the other watch?
			if vals[cl[0]] == 1 {
				ws[kept] = off
				kept++
				continue
			}
			// Find a new literal to watch.
			for k := 2; k < len(cl); k++ {
				if vals[cl[k]] != 0 {
					cl[1], cl[k] = cl[k], cl[1]
					s.watches[cl[1]] = append(s.watches[cl[1]], off)
					continue next
				}
			}
			// Unit or conflict.
			ws[kept] = off
			kept++
			if !s.enqueue(cl[0], off) {
				// Conflict: keep the unvisited watches and report.
				kept += copy(ws[kept:], ws[i+1:])
				s.watches[falseLit] = ws[:kept]
				return off
			}
		}
		s.watches[falseLit] = ws[:kept]
	}
	return noClause
}

func (s *SAT) bumpVar(v int) {
	if !s.unranked {
		s.unrank()
	}
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		// Scaling keeps activities in order but can round distinct
		// ones into ties, which the index then breaks: re-heapify.
		s.orderRebuild()
		return
	}
	if i := s.orderPos[v]; i >= 0 {
		s.orderUp(i)
	}
}

// analyze derives a 1-UIP learnt clause from a conflict into s.lits, the
// asserting literal first; returns the backtrack level.
func (s *SAT) analyze(conflict uint32) int {
	learnt := append(s.lits[:0], 0) // slot 0 reserved for the asserting literal
	counter := 0
	var p uint32 // the literal resolved on; 0 is no literal's code
	idx := len(s.trail) - 1
	reason := conflict

	for {
		cl := s.arena[reason+1 : reason+1+s.arena[reason]]
		start := 0
		if p != 0 {
			start = 1 // skip the asserting literal slot of the reason
		}
		for _, q := range cl[start:] {
			if p != 0 && q == p {
				continue
			}
			v := q >> 1
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(int(v))
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal on the trail to resolve on.
		for !s.seen[s.trail[idx]>>1] {
			idx--
		}
		p = s.trail[idx]
		v := p >> 1
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p ^ 1
			break
		}
		reason = s.reason[v]
		idx--
	}
	for _, c := range learnt[1:] {
		s.seen[c>>1] = false
	}

	// Backtrack level: highest level among learnt[1:].
	blevel := 0
	swapIdx := -1
	for i, c := range learnt[1:] {
		if lv := s.level[c>>1]; lv > blevel {
			blevel = lv
			swapIdx = i + 1
		}
	}
	if swapIdx > 0 {
		learnt[1], learnt[swapIdx] = learnt[swapIdx], learnt[1]
	}
	s.lits = learnt
	return blevel
}

// backtrack retracts every level above the given one. Retracted variables
// move the cursor back to them, or re-enter the heap in forward trail
// order; the heap pops the same variables whatever the insertion order,
// since before is a strict total order.
func (s *SAT) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for _, c := range s.trail[s.trailLim[level]:] {
		v := c >> 1
		s.phase[v] = s.vals[c&^1]
		s.vals[c], s.vals[c^1] = unassigned, unassigned
		s.reason[v] = noClause
		if s.unranked {
			if s.orderPos[v] < 0 {
				s.orderPush(int(v))
			}
		} else if r := s.rankOf[v]; r < s.cursor {
			s.cursor = r
		}
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// decide picks the unassigned variable with the highest activity, the
// lowest-numbered one among equals, and returns it in its saved phase.
func (s *SAT) decide() Lit {
	v := 0
	if s.unranked {
		for v == 0 && len(s.order) > 0 {
			if u := s.orderPop(); s.vals[2*u] == unassigned {
				v = u
			}
		}
	} else {
		for ; s.cursor < len(s.ranked); s.cursor++ {
			if u := s.ranked[s.cursor]; s.vals[2*u] == unassigned {
				v = u
				break
			}
		}
	}
	switch {
	case v == 0:
		return 0
	case s.phase[v] == 1:
		return Lit(v)
	default:
		return Lit(-v)
	}
}

// rank sorts every variable into ranked and empties the heap.
func (s *SAT) rank() {
	for _, v := range s.order {
		s.orderPos[v] = -1
	}
	s.order = s.order[:0]
	s.ranked = s.ranked[:0]
	for v := 1; v <= s.nVars; v++ {
		s.ranked = append(s.ranked, v)
	}
	slices.SortFunc(s.ranked, func(a, b int) int {
		switch {
		case s.before(a, b):
			return -1
		case s.before(b, a):
			return 1
		}
		return 0
	})
	for i, v := range s.ranked {
		s.rankOf[v] = i
	}
	s.cursor = 0
	s.unranked = false
}

// unrank moves the unassigned variables into the heap, ahead of an
// activity change. They all sit in ranked[cursor:], already in heap
// order.
func (s *SAT) unrank() {
	for _, v := range s.ranked[s.cursor:] {
		if s.vals[2*v] == unassigned {
			s.orderPos[v] = len(s.order)
			s.order = append(s.order, v)
		}
	}
	s.unranked = true
}

// before is the decision order: a higher activity first, then a lower
// index. It is the order in which a scan from variable 1 upwards that
// keeps only a strictly greater activity ranks variables.
func (s *SAT) before(a, b int) bool {
	aa, ab := s.activity[a], s.activity[b]
	return aa > ab || aa == ab && a < b
}

func (s *SAT) orderPush(v int) {
	s.orderPos[v] = len(s.order)
	s.order = append(s.order, v)
	s.orderUp(len(s.order) - 1)
}

// orderPop removes and returns the heap's first variable.
func (s *SAT) orderPop() int {
	v := s.order[0]
	last := len(s.order) - 1
	s.order[0] = s.order[last]
	s.orderPos[s.order[0]] = 0
	s.order = s.order[:last]
	s.orderPos[v] = -1
	if last > 0 {
		s.orderDown(0)
	}
	return v
}

// orderUp moves the variable at heap index i towards the root until its
// parent comes before it.
func (s *SAT) orderUp(i int) {
	v := s.order[i]
	for i > 0 {
		parent := (i - 1) / 2
		u := s.order[parent]
		if !s.before(v, u) {
			break
		}
		s.order[i] = u
		s.orderPos[u] = i
		i = parent
	}
	s.order[i] = v
	s.orderPos[v] = i
}

// orderDown moves the variable at heap index i towards the leaves until
// it comes before both children.
func (s *SAT) orderDown(i int) {
	v := s.order[i]
	n := len(s.order)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.before(s.order[r], s.order[c]) {
			c = r
		}
		u := s.order[c]
		if !s.before(u, v) {
			break
		}
		s.order[i] = u
		s.orderPos[u] = i
		i = c
	}
	s.order[i] = v
	s.orderPos[v] = i
}

// orderRebuild restores the heap property over the whole heap.
func (s *SAT) orderRebuild() {
	for i := len(s.order)/2 - 1; i >= 0; i-- {
		s.orderDown(i)
	}
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int) int {
	k := 1
	for (1<<uint(k))-1 < i {
		k++
	}
	for (1<<uint(k))-1 != i {
		i -= (1 << uint(k-1)) - 1
		k = 1
		for (1<<uint(k))-1 < i {
			k++
		}
	}
	return 1 << uint(k-1)
}

// Solve runs the CDCL search. The solver is incremental: Solve may be
// called repeatedly, with clauses added in between; learnt clauses,
// variable activities and saved phases carry over from call to call.
func (s *SAT) Solve() Status {
	return s.SolveAssuming()
}

// SolveAssuming runs the CDCL search with the given literals assumed true
// for the duration of this call only. Unsat means "unsatisfiable under
// the assumptions" — the clause database is untouched, so a later call
// with different assumptions can still be Sat. This is how soft
// preference constraints are decided without re-blasting the formula.
// Every assumption must be a literal of an allocated variable, as for
// AddClause.
func (s *SAT) SolveAssuming(assumps ...Lit) Status {
	for _, l := range assumps {
		if l == 0 || l.Var() > s.nVars {
			badLit(l)
		}
	}
	if s.unsat {
		return Unsat
	}
	s.backtrack(0) // retract the previous call's trail
	if s.unranked {
		s.rank()
	}
	s.assumps = assumps
	defer func() { s.assumps = nil }()

	s.varInc = 1.0
	restart := 1
	budget := 100 * luby(restart)
	conflictsHere := 0
	startConflicts := s.Conflicts

	if s.propagate() != noClause {
		s.unsat = true // conflict at the root level is global
		return Unsat
	}
	for {
		conflict := s.propagate()
		if conflict != noClause {
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
			s.backtrack(s.analyze(conflict))
			if len(s.lits) == 1 {
				if !s.enqueue(s.lits[0], noClause) {
					s.unsat = true
					return Unsat
				}
			} else {
				off := s.attach(s.lits)
				s.enqueue(s.lits[0], off)
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
			switch s.vals[p.index()] {
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
		s.enqueue(next.index(), noClause)
	}
}

// ValueOf returns the model value of a variable after Sat.
func (s *SAT) ValueOf(v int) bool { return s.vals[2*v] == 1 }

// NumVars returns the number of allocated variables.
func (s *SAT) NumVars() int { return s.nVars }

// NumClauses returns the number of clauses (problem + learnt).
func (s *SAT) NumClauses() int { return s.nClauses }
