// Package reduce implements automatic test-case reduction — the paper's
// §8 names manual reduction as a limitation ("we prune the random P4
// program that caused the bug until we get a sufficiently small program";
// "we hope to automate this process"). This is that automation, in the
// C-Reduce/ddmin tradition specialized to the P4 subset:
//
//  1. delta-debug statement lists (drop halves, then single statements),
//     in control/action/function bodies and parser states alike,
//  2. unwrap control flow (replace an if by one of its branches),
//  3. drop unreferenced control locals (actions, tables, functions),
//  4. drop unreferenced top-level declarations and header/struct fields,
//  5. simplify expressions (replace subtrees by trivial ones).
//
// Every candidate must stay well-typed and keep the caller's property
// (e.g. "the compiler still crashes" or "translation validation still
// fails") — the same invariant a human reducer preserves.
//
// # Speculative parallel reduction
//
// Each pass is split into candidate *enumeration* (a deterministic list
// of edits against the current program) and *commit* (adopt the first
// edit, in enumeration order, whose result is well-typed and keeps the
// property). That split is what makes speculation safe: the executor may
// probe a bounded window of consecutive candidates concurrently, but it
// still commits the first success in canonical order and discards every
// speculative result past the commit point. The greedy serial trajectory
// is therefore reproduced exactly — the reduced witness is byte-identical
// at any Options.Parallelism — and only the wall-clock changes.
//
// The predicate budget counts serial-equivalent work, not speculation:
// when a window of w candidates resolves with the first success at index
// j, exactly j+1 calls are charged (a serial reducer would have stopped
// there); when all w fail, w calls are charged. Speculative overshoot is
// free, so MaxPredicateCalls exhausts at the same candidate regardless of
// the window width, and budgeted reductions stay identical too.
package reduce

import (
	"context"

	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/printer"
	"gauntlet/internal/p4/types"
)

// Predicate reports whether a candidate program still exhibits the
// behaviour being isolated. It is never called with an ill-typed program.
//
// Predicates dominate reduction cost, so callers should layer them
// cheapest-first: a remembered concrete counterexample (replay one input
// through the candidate — core.Oracle.ReplayMismatch, or a concolic hint
// that settles the equivalence query in one tape packet) decides most
// candidates for the price of a compile, and only candidates the cheap
// tier cannot confirm fall through to the full oracle. The cheap tier
// must only ever short-circuit towards "keep": a counterexample that no
// longer fires is not evidence the behaviour is gone.
type Predicate func(*ast.Program) bool

// PredicateCtx is a Predicate that also observes a context. The context
// is cancelled when the probe's result can no longer matter — the window
// committed an earlier candidate, or the whole reduction was cancelled —
// so expensive predicates (solver sessions) can abandon dead work early.
// Under Parallelism > 1 the predicate may be called from several
// goroutines at once and must be safe for concurrent use.
type PredicateCtx func(context.Context, *ast.Program) bool

// Options bounds the reduction loop.
type Options struct {
	// MaxRounds caps full fixpoint iterations.
	MaxRounds int
	// MaxPredicateCalls caps how many candidates are tried in one
	// reduction (0 = unbounded). Predicates that re-run a compiler or a
	// solver dominate reduction cost, so this is the budget that keeps a
	// pathological finding from stalling a pipeline worker forever. The
	// budget counts serial-equivalent candidates only (see the package
	// comment), so it bites at the same point at any Parallelism.
	MaxPredicateCalls int
	// Parallelism is the speculative window width: how many consecutive
	// candidates may be probed concurrently. <= 1 probes serially. The
	// reduced program, the serial-equivalent call count and every commit
	// decision are identical at any value; only wall-clock changes.
	Parallelism int
	// Gate, when non-nil, is a shared counting semaphore (acquire = send,
	// release = receive) bounding concurrent predicate executions across
	// many reductions — the engine sizes one gate to its worker pool so
	// that N findings reducing at once cannot oversubscribe the machine
	// by N×Parallelism. A nil Gate bounds each reduction by Parallelism
	// alone.
	Gate chan struct{}
}

// Stats reports what one reduction did, in both serial-equivalent and
// wall-clock terms.
type Stats struct {
	// SerialCalls is the predicate budget consumed: the number of
	// candidates a serial reducer would have evaluated to reach the same
	// result. Identical at any Parallelism.
	SerialCalls int
	// Launched counts probes actually started, including speculative ones
	// (each probe clones, applies an edit, type-checks, and — unless
	// cancelled first — runs the predicate).
	Launched int
	// Wasted counts launched probes whose results were discarded because
	// an earlier candidate in the same window committed first. The waste
	// ratio Wasted/Launched is the price paid for speculation.
	Wasted int
}

// Reduce shrinks prog while keep(prog) holds. The input program is not
// mutated; the returned program satisfies keep and is well-typed.
func Reduce(prog *ast.Program, keep Predicate, opts Options) *ast.Program {
	return ReduceContext(context.Background(), prog, keep, opts)
}

// ReduceContext is Reduce with cancellation: when ctx is done or the
// predicate budget is exhausted, the loop stops trying new candidates and
// returns the smallest program found so far (still well-typed, still
// satisfying keep). The input program is not mutated.
func ReduceContext(ctx context.Context, prog *ast.Program, keep Predicate, opts Options) *ast.Program {
	out, _ := ReduceStats(ctx, prog, func(_ context.Context, p *ast.Program) bool { return keep(p) }, opts)
	return out
}

// ReduceStats is the full-fidelity entry point: a context-aware predicate
// (required for probe cancellation under speculation) and per-reduction
// Stats. ctx is observed between probe windows; when it is cancelled, any
// in-flight probes are cancelled too and the best program found so far is
// returned.
func ReduceStats(ctx context.Context, prog *ast.Program, keep PredicateCtx, opts Options) (*ast.Program, Stats) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 8
	}
	ex := &executor{
		ctx:    ctx,
		keep:   keep,
		par:    opts.Parallelism,
		gate:   opts.Gate,
		budget: opts.MaxPredicateCalls,
	}
	if ex.par < 1 {
		ex.par = 1
	}
	cur := reparse(prog)
	// The initial property check is one serial candidate like any other:
	// an exhausted budget or a dead context means zero predicate calls.
	if ex.exhausted() || !ex.probeSerial(cur) {
		return cur, ex.stats
	}
	passes := []func(*ast.Program) []edit{
		enumStatements,
		enumBranches,
		enumLocals,
		enumDecls,
		enumFields,
		enumExprs,
	}
	for round := 0; round < opts.MaxRounds; round++ {
		before := printer.Fingerprint(cur)
		for _, enum := range passes {
			cur = ex.runPass(cur, enum)
		}
		if printer.Fingerprint(cur) == before || ex.exhausted() {
			break
		}
	}
	return cur, ex.stats
}

// reparse round-trips the program through its printed source. Reduction
// edits type declarations (field dropping), which is only sound on an
// AST whose type references are still by name: the checker resolves
// NamedType references by sharing the declaration's type objects, so a
// checked program aliases its declarations in ways structural editing
// would desynchronize. The subset prints and re-parses losslessly; if a
// caller hands us something that doesn't, fall back to a plain clone.
func reparse(prog *ast.Program) *ast.Program {
	p, err := parser.Parse(printer.Print(prog))
	if err != nil {
		return ast.CloneProgram(prog)
	}
	return p
}

// An edit is one candidate transformation, addressed positionally so it
// can be replayed onto any structurally identical clone of the program it
// was enumerated from. apply reports whether the edit was applicable
// (defensive: enumeration and application always agree on structure in
// practice).
type edit struct {
	apply func(*ast.Program) bool
}

// executor evaluates candidate edits — serially or speculatively — under
// the serial-equivalent budget. The serial path is the Parallelism=1
// window of the same code, so identity across widths holds by
// construction rather than by parallel-vs-serial code review.
type executor struct {
	ctx    context.Context
	keep   PredicateCtx
	par    int
	gate   chan struct{}
	budget int // 0 = unbounded
	stats  Stats
	dead   bool // caller ctx observed cancelled; stop starting new work
}

func (ex *executor) exhausted() bool {
	if ex.dead {
		return true
	}
	if ex.ctx.Err() != nil {
		ex.dead = true
		return true
	}
	return ex.budget > 0 && ex.stats.SerialCalls >= ex.budget
}

// probeSerial evaluates one candidate inline (the initial check).
func (ex *executor) probeSerial(cand *ast.Program) bool {
	ex.stats.SerialCalls++
	ex.stats.Launched++
	if types.Check(ast.CloneProgram(cand)) != nil {
		return false
	}
	return ex.keep(ex.ctx, cand)
}

// runPass drives one pass to its fixpoint: enumerate candidates against
// the current program, commit the first success in canonical order,
// re-enumerate, until no candidate succeeds (or budget/ctx stops us).
func (ex *executor) runPass(cur *ast.Program, enum func(*ast.Program) []edit) *ast.Program {
	for !ex.exhausted() {
		next := ex.firstSuccess(cur, enum(cur))
		if next == nil {
			break
		}
		cur = next
	}
	return cur
}

// probe is one speculative candidate evaluation. The goroutine owns its
// result fields until it closes done; it never blocks sending a result,
// so an abandoned orchestrator (the engine's stage watchdog giving up on
// a stuck reduction) strands no goroutine here.
type probe struct {
	cand *ast.Program
	ok   bool
	done chan struct{}
}

// firstSuccess finds the first edit, in enumeration order, that yields a
// well-typed program satisfying keep, and returns that program (nil if
// none). Windows of up to par consecutive candidates are probed
// concurrently; results are consumed strictly in order, so the commit
// decision is the serial one.
func (ex *executor) firstSuccess(base *ast.Program, edits []edit) *ast.Program {
	for lo := 0; lo < len(edits); {
		if ex.exhausted() {
			return nil
		}
		w := ex.par
		if rem := len(edits) - lo; w > rem {
			w = rem
		}
		if ex.budget > 0 {
			if rem := ex.budget - ex.stats.SerialCalls; w > rem {
				w = rem
			}
		}
		pctx, pcancel := context.WithCancel(context.Background())
		probes := make([]*probe, w)
		for i := 0; i < w; i++ {
			p := &probe{done: make(chan struct{})}
			probes[i] = p
			ed := edits[lo+i]
			go func() {
				defer close(p.done)
				if ex.gate != nil {
					select {
					case ex.gate <- struct{}{}:
						defer func() { <-ex.gate }()
					case <-pctx.Done():
						return
					}
				}
				if pctx.Err() != nil {
					return
				}
				cand := ast.CloneProgram(base)
				if !ed.apply(cand) {
					return
				}
				if types.Check(ast.CloneProgram(cand)) != nil {
					return
				}
				// Re-check after the clone/typecheck window: a commit may
				// have landed while this probe was warming up, and skipping
				// the (expensive) predicate then costs nothing — consumed
				// probes never observe cancellation, so verdicts that count
				// are unaffected.
				if pctx.Err() != nil {
					return
				}
				if ex.keep(pctx, cand) {
					p.cand = cand
					p.ok = true
				}
			}()
		}
		ex.stats.Launched += w
		// Consume in canonical order: the first success is the commit, and
		// everything past it is discarded speculation.
		commit := -1
		var winner *ast.Program
		for j := 0; j < w; j++ {
			select {
			case <-probes[j].done:
			case <-ex.ctx.Done():
				// Caller cancelled mid-window: kill outstanding probes and
				// drain them so no goroutine outlives the reduction.
				ex.dead = true
				pcancel()
				for _, p := range probes {
					<-p.done
				}
				return nil
			}
			if probes[j].ok {
				commit = j
				winner = probes[j].cand
				break
			}
		}
		// Cancel and drain the speculative tail (no-ops when the whole
		// window was consumed).
		pcancel()
		for _, p := range probes {
			<-p.done
		}
		if commit >= 0 {
			ex.stats.SerialCalls += commit + 1
			ex.stats.Wasted += w - (commit + 1)
			return winner
		}
		ex.stats.SerialCalls += w
		lo += w
	}
	return nil
}

// stmtLists enumerates every mutable statement list of the program:
// control/action/function bodies (including nested blocks) and parser
// states, in ast.StmtLists order, so an index into this slice addresses
// the same list in any clone.
func stmtLists(prog *ast.Program) []*[]ast.Stmt {
	var out []*[]ast.Stmt
	ast.StmtLists(prog, func(l *[]ast.Stmt, _ bool) { out = append(out, l) })
	return out
}

// listEdit wraps a statement-list transformation into a positionally
// addressed edit: li indexes stmtLists of the (cloned) program.
func listEdit(li int, f func(*[]ast.Stmt) bool) edit {
	return edit{apply: func(p *ast.Program) bool {
		ls := stmtLists(p)
		if li >= len(ls) {
			return false
		}
		return f(ls[li])
	}}
}

// enumStatements enumerates ddmin statement deletions: for each list,
// contiguous chunks largest first (halving down to singles).
func enumStatements(prog *ast.Program) []edit {
	var out []edit
	for li, b := range stmtLists(prog) {
		n := len(*b)
		for chunk := n; chunk >= 1; chunk /= 2 {
			for start := 0; start+chunk <= n; start++ {
				start, chunk := start, chunk
				out = append(out, listEdit(li, func(l *[]ast.Stmt) bool {
					if start+chunk > len(*l) {
						return false
					}
					*l = append(append([]ast.Stmt{}, (*l)[:start]...), (*l)[start+chunk:]...)
					return true
				}))
			}
		}
	}
	return out
}

// enumBranches enumerates if-statement unwrappings: replace the if by its
// then-branch, then by its else-branch.
func enumBranches(prog *ast.Program) []edit {
	var out []edit
	unwrap := func(li, i, branch int) edit {
		return listEdit(li, func(l *[]ast.Stmt) bool {
			if i >= len(*l) {
				return false
			}
			iff, ok := (*l)[i].(*ast.IfStmt)
			if !ok {
				return false
			}
			var body []ast.Stmt
			switch branch {
			case 0:
				body = iff.Then.Stmts
			default:
				if els, ok := iff.Else.(*ast.BlockStmt); ok {
					body = els.Stmts
				} else if iff.Else != nil {
					body = []ast.Stmt{iff.Else}
				} else {
					return false
				}
			}
			repl := append([]ast.Stmt{}, (*l)[:i]...)
			repl = append(repl, body...)
			repl = append(repl, (*l)[i+1:]...)
			*l = repl
			return true
		})
	}
	for li, b := range stmtLists(prog) {
		for i, s := range *b {
			iff, ok := s.(*ast.IfStmt)
			if !ok {
				continue
			}
			out = append(out, unwrap(li, i, 0))
			if iff.Else != nil {
				out = append(out, unwrap(li, i, 1))
			}
		}
	}
	return out
}

// enumLocals enumerates single control-local deletions (tables, actions,
// functions, vars).
func enumLocals(prog *ast.Program) []edit {
	var out []edit
	for di, d := range prog.Decls {
		c, ok := d.(*ast.ControlDecl)
		if !ok {
			continue
		}
		for i := range c.Locals {
			di, i := di, i
			out = append(out, edit{apply: func(p *ast.Program) bool {
				c, ok := p.Decls[di].(*ast.ControlDecl)
				if !ok || i >= len(c.Locals) {
					return false
				}
				c.Locals = append(append([]ast.Decl{}, c.Locals[:i]...), c.Locals[i+1:]...)
				return true
			}})
		}
	}
	return out
}

// enumDecls enumerates single top-level declaration deletions: header and
// struct types, typedefs, constants, helper actions and functions. The
// architecture blocks themselves (parsers, controls, main) are left to
// the type checker's referential integrity — a removal that breaks a
// reference simply fails the check and is never committed.
func enumDecls(prog *ast.Program) []edit {
	var out []edit
	for i, d := range prog.Decls {
		switch d.(type) {
		case *ast.ControlDecl, *ast.ParserDecl:
			continue // main blocks: required by the package skeleton
		}
		i := i
		out = append(out, edit{apply: func(p *ast.Program) bool {
			if i >= len(p.Decls) {
				return false
			}
			p.Decls = append(append([]ast.Decl{}, p.Decls[:i]...), p.Decls[i+1:]...)
			return true
		}})
	}
	return out
}

func fieldsOf(d ast.Decl) *[]ast.Field {
	switch d := d.(type) {
	case *ast.HeaderDecl:
		return &d.Fields
	case *ast.StructDecl:
		return &d.Fields
	}
	return nil
}

// enumFields enumerates single header/struct field deletions — the
// per-seed random header layouts are most of what keeps two otherwise
// identical minimal witnesses distinct.
func enumFields(prog *ast.Program) []edit {
	var out []edit
	for di, d := range prog.Decls {
		fs := fieldsOf(d)
		if fs == nil {
			continue
		}
		for i := range *fs {
			di, i := di, i
			out = append(out, edit{apply: func(p *ast.Program) bool {
				fs := fieldsOf(p.Decls[di])
				if fs == nil || i >= len(*fs) {
					return false
				}
				*fs = append(append([]ast.Field{}, (*fs)[:i]...), (*fs)[i+1:]...)
				return true
			}})
		}
	}
	return out
}

// enumExprs enumerates expression simplifications: assignment right-hand
// sides become self-assignments (always well-typed, usually minimal
// enough), then if-conditions become true/false. Only RHSes and
// conditions are attacked (lvalues must survive).
func enumExprs(prog *ast.Program) []edit {
	var out []edit
	for li, b := range stmtLists(prog) {
		for i, s := range *b {
			a, ok := s.(*ast.AssignStmt)
			if !ok {
				continue
			}
			switch a.RHS.(type) {
			case *ast.IntLit, *ast.BoolLit, *ast.Ident:
				continue
			}
			if printer.PrintExpr(a.RHS) == printer.PrintExpr(a.LHS) {
				continue // self-assignment already: the edit would be a no-op
			}
			li, i := li, i
			out = append(out, listEdit(li, func(l *[]ast.Stmt) bool {
				if i >= len(*l) {
					return false
				}
				a, ok := (*l)[i].(*ast.AssignStmt)
				if !ok {
					return false
				}
				a.RHS = ast.CloneExpr(a.LHS)
				return true
			}))
		}
		for i, s := range *b {
			iff, ok := s.(*ast.IfStmt)
			if !ok {
				continue
			}
			if _, isLit := iff.Cond.(*ast.BoolLit); isLit {
				continue
			}
			for _, v := range []bool{true, false} {
				li, i, v := li, i, v
				out = append(out, listEdit(li, func(l *[]ast.Stmt) bool {
					if i >= len(*l) {
						return false
					}
					iff, ok := (*l)[i].(*ast.IfStmt)
					if !ok {
						return false
					}
					iff.Cond = ast.Bool(v)
					return true
				}))
			}
		}
	}
	return out
}

// Size returns the statement count of a program (the reduction metric).
func Size(prog *ast.Program) int {
	n := 0
	for _, b := range stmtLists(prog) {
		n += len(*b)
	}
	return n
}
