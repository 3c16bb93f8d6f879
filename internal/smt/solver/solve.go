package solver

import (
	"context"
	"slices"

	"gauntlet/internal/smt"
)

// Result is the outcome of a Solve call.
type Result struct {
	Status Status
	// Model assigns every input variable when Status == Sat.
	Model smt.Assignment
	// Conflicts is the CDCL conflict count (statistics).
	Conflicts int
}

// Solve decides the conjunction of the assertions and returns a model when
// satisfiable. maxConflicts bounds the search (0 = unbounded).
func Solve(maxConflicts int, assertions ...*smt.Term) Result {
	s := NewSession(maxConflicts)
	defer s.Close()
	s.Assert(assertions...)
	return s.Solve()
}

// SolveContext is Solve under a wall-clock watchdog: the context's
// deadline/cancellation is polled inside the CDCL search (next to the
// conflict-budget check), and an expired context degrades the verdict to
// Unknown instead of hanging the query.
func SolveContext(ctx context.Context, maxConflicts int, assertions ...*smt.Term) Result {
	s := NewSessionContext(ctx, maxConflicts)
	defer s.Close()
	s.Assert(assertions...)
	return s.Solve()
}

// stopFor derives the SAT watchdog poll from a context. Contexts that can
// never be cancelled (Background, TODO) yield nil so the search loop
// skips the poll entirely.
func stopFor(ctx context.Context) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// Session is an incremental solving session: one Blaster over one SAT
// instance, queried many times. The formula is bit-blasted exactly once —
// the blaster's memo tables are keyed by interned term, so every shared
// subterm encodes to the same circuit — and each query decides extra
// conditions under SAT assumptions instead of rebuilding the CNF. Learnt
// clauses, activities and phases persist across queries, which is what
// makes path enumeration and soft-preference search fast.
//
// Close hands the blaster and its SAT instance to the next session, so
// a process that solves many small formulas, one session each, stops
// allocating solver arrays once they have grown. A reset instance is the
// zero solver on old storage: it makes every step a new one would make.
type Session struct {
	b *Blaster
}

// maxPooledArena bounds, in words, the clause arena of a SAT instance
// Close hands on. Nearly every session's arena stays far below it; the
// few that pass it belong to budgeted CDCL queries, and pooling one would
// keep its arena and watch lists alive for as long as the pool lives.
const maxPooledArena = 1 << 18

// Close ends the session and resets its blaster and SAT instance for
// reuse by a later NewSession, unless the arena holds more than
// maxPooledArena words. The session must not be used afterwards; what it
// returned stays valid, since every model is a map of its own.
func (s *Session) Close() {
	b := s.b
	s.b = nil
	if cap(b.sat.arena) > maxPooledArena {
		return
	}
	b.reset()
	blasters.Put(b)
}

// NewSession creates a session with the given per-query conflict budget
// (0 = unbounded).
func NewSession(maxConflicts int) *Session {
	s := &Session{b: NewBlaster()}
	s.b.SAT().MaxConflicts = maxConflicts
	return s
}

// NewSessionContext is NewSession with a wall-clock watchdog: every query
// on the session polls the context at each conflict and degrades to
// Unknown once it expires. A non-cancellable context adds no hook at all,
// so the plain and context paths share one solver loop.
func NewSessionContext(ctx context.Context, maxConflicts int) *Session {
	s := NewSession(maxConflicts)
	s.b.SAT().Stop = stopFor(ctx)
	return s
}

// Assert adds hard constraints. Terms are canonicalized through
// smt.Simplify before blasting — simplification is model-preserving, so
// the session decides the same formula over a smaller circuit, and
// syntactic variants of one constraint encode once.
func (s *Session) Assert(ts ...*smt.Term) {
	for _, t := range ts {
		s.b.Assert(smt.Simplify(t))
	}
}

// Lit encodes a boolean term without asserting it and returns its CNF
// literal, for use as a SolveAssuming assumption. The term is simplified
// first (a constant-collapsing condition becomes the true/false literal
// directly); repeated calls with the same (interned) term return the same
// literal.
func (s *Session) Lit(t *smt.Term) Lit { return s.b.BlastBool(smt.Simplify(t)) }

// Solve decides the asserted constraints.
func (s *Session) Solve() Result { return s.SolveAssuming() }

// SolveAssuming decides the asserted constraints with the given literals
// temporarily assumed true. Unsat means unsatisfiable under the
// assumptions only; the session remains usable.
func (s *Session) SolveAssuming(assumps ...Lit) Result {
	before := s.b.SAT().Conflicts
	st := s.b.SAT().SolveAssuming(assumps...)
	res := Result{Status: st, Conflicts: s.b.SAT().Conflicts - before}
	if st == Sat {
		res.Model = s.b.Model()
	}
	return res
}

// Check decides the asserted constraints under the assumptions as
// SolveAssuming does and returns the verdict alone, without building a
// model: the call for feasibility probes.
func (s *Session) Check(assumps ...Lit) Status { return s.b.sat.SolveAssuming(assumps...) }

// BVLits encodes a bitvector term and returns its bit literals (LSB
// first) without asserting anything. The literals can pin the term to a
// concrete value purely through assumptions — no new clauses per query.
// The term is simplified first so its circuit shares the gates of the
// (equally simplified) asserted constraints.
func (s *Session) BVLits(t *smt.Term) []Lit { return s.b.BlastBV(smt.Simplify(t)) }

// SolveAssumingSoft decides the fixed assumptions, then greedily keeps
// each soft assumption group that remains satisfiable, in order. A group
// is atomic: all of its literals are kept or none (one group typically
// encodes one preference constraint). Test generation steers its models
// with it, among them toward the non-zero packets §6.2 asks for.
func (s *Session) SolveAssumingSoft(fixed []Lit, soft [][]Lit) Result {
	if len(soft) == 0 {
		return s.SolveAssuming(fixed...)
	}
	sat := s.b.SAT()
	before := sat.Conflicts
	res := Result{Status: sat.SolveAssuming(fixed...)}
	if res.Status == Sat {
		// Only the last satisfiable trial's model is returned: keep its
		// assignment and build the model once, at the end.
		last := slices.Clone(sat.vals)
		// One buffer holds every trial: the kept groups, then the group
		// on trial, which the next trial overwrites unless it is kept.
		n := len(fixed)
		for _, g := range soft {
			n += len(g)
		}
		trial := append(make([]Lit, 0, n), fixed...)
		kept := len(trial)
		for _, g := range soft {
			trial = append(trial[:kept], g...)
			if sat.SolveAssuming(trial...) == Sat {
				kept = len(trial)
				last = append(last[:0], sat.vals...)
			}
		}
		res.Model = s.b.modelOf(last)
	}
	res.Conflicts = sat.Conflicts - before
	return res
}

// EquivalentContext checks whether two terms of equal sort are
// semantically identical. When they differ it returns a distinguishing
// assignment — the counterexample translation validation reports (§5.2).
// An expired context aborts the search with Unknown — the same explicit
// degradation as conflict-budget exhaustion — instead of letting one
// pathological miter stall its caller indefinitely.
func EquivalentContext(ctx context.Context, maxConflicts int, a, b *smt.Term) (bool, smt.Assignment, Status) {
	res := SolveContext(ctx, maxConflicts, smt.Ne(a, b))
	switch res.Status {
	case Unsat:
		return true, nil, Unsat
	case Sat:
		return false, res.Model, Sat
	default:
		return false, nil, Unknown
	}
}
