// Package mutate implements AST-level program mutators for the
// coverage-guided corpus engine. These are the dual of bugs.Mutators:
// that package corrupts a pass's *output* to simulate compiler defects;
// this one perturbs *input* programs so the fuzzer can explore the
// neighbourhood of seeds that already reached interesting pass behaviour,
// instead of redrawing every program from the grammar.
//
// Every mutator is deterministic under a supplied *rand.Rand — the same
// stream over the same base (and donor) programs produces the same
// mutant, which is what keeps the engine's schedule reproducible and
// worker-count independent. Mutators are validity-preserving by
// construction wherever the site permits (swaps stay inside declaration-
// free segments, grafts only replace literals with closed expressions of
// the same width, parser-state insertion is a pass-through state); the
// few that can still break a def-use or const-expr constraint are
// rejected cheaply by the type checker in the caller before the program
// ever reaches the oracle.
package mutate

import (
	"fmt"
	"math/rand"

	"gauntlet/internal/p4/ast"
)

// Mutator is one named program perturbation. Apply mutates prog in place
// (callers pass a private clone) and reports whether a mutation site was
// found; donor is a second corpus seed for cross-program grafting and may
// be nil.
type Mutator struct {
	Name  string
	Apply func(r *rand.Rand, prog, donor *ast.Program) bool
}

// Catalog returns the mutator set in a fixed order (the order is part of
// the deterministic schedule: index draws must mean the same mutator on
// every run).
func Catalog() []Mutator {
	return []Mutator{
		{"stmt-duplicate", stmtDuplicate},
		{"stmt-swap", stmtSwap},
		{"stmt-splice", stmtSplice},
		{"expr-graft", exprGraft},
		{"const-tweak", constTweak},
		{"width-tweak", widthTweak},
		{"if-to-switch", ifToSwitch},
		{"table-add-action", tableAddAction},
		{"parser-state-insert", parserStateInsert},
	}
}

// Program clones base and applies 1..maxOps randomly drawn mutators,
// returning the mutant, the names of the mutators that found a site, and
// whether any did. The result is NOT type-checked here — callers reject
// invalid mutants cheaply before compiling.
func Program(r *rand.Rand, base, donor *ast.Program, maxOps int) (*ast.Program, []string, bool) {
	if maxOps < 1 {
		maxOps = 1
	}
	mutant := ast.CloneProgram(base)
	cat := Catalog()
	n := 1 + r.Intn(maxOps)
	var applied []string
	for i := 0; i < n; i++ {
		m := cat[r.Intn(len(cat))]
		if m.Apply(r, mutant, donor) {
			applied = append(applied, m.Name)
		}
	}
	return mutant, applied, len(applied) > 0
}

// ---------------------------------------------------------------------------
// Site enumeration helpers. All walks are in declaration order — never over
// maps — so site indices are deterministic.

// bodyLists enumerates every mutable statement list in executable bodies
// (control apply blocks, actions, functions; nested blocks included), in
// ast.StmtLists order. Parser states are excluded: their statements are
// extract calls whose order and multiplicity the stmt mutators should not
// disturb.
func bodyLists(prog *ast.Program) []*[]ast.Stmt {
	var out []*[]ast.Stmt
	ast.StmtLists(prog, func(l *[]ast.Stmt, inParser bool) {
		if !inParser {
			out = append(out, l)
		}
	})
	return out
}

// isDecl reports whether a statement introduces a name (moving it past a
// use would break def-before-use).
func isDecl(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.VarDeclStmt, *ast.ConstDeclStmt:
		return true
	}
	return false
}

// segment returns the declaration-free segment [lo, hi) of list around
// index i: statements inside one segment can be freely reordered without
// moving any declaration relative to its uses.
func segment(list []ast.Stmt, i int) (lo, hi int) {
	lo = i
	for lo > 0 && !isDecl(list[lo-1]) {
		lo--
	}
	hi = i + 1
	for hi < len(list) && !isDecl(list[hi]) {
		hi++
	}
	return lo, hi
}

// intLitSite is one replaceable literal: a pointer-bearing container whose
// rewrite substitutes the literal.
type intLitSite struct {
	lit     *ast.IntLit
	replace func(ast.Expr)
}

// intLitSites enumerates sized integer literals in replace-safe positions:
// assignment RHSs, variable initializers, if conditions, call arguments,
// return values and switch tags. Const-decl values, switch labels, select
// values and table default arguments are excluded — those contexts demand
// literal or compile-time-constant forms that a general replacement could
// break.
func intLitSites(prog *ast.Program) []intLitSite {
	var sites []intLitSite
	var inExpr func(slot *ast.Expr)
	collect := func(e ast.Expr) {
		// Walk with parent pointers via closures over each child slot.
		switch x := e.(type) {
		case *ast.UnaryExpr:
			inExpr(&x.X)
		case *ast.BinaryExpr:
			inExpr(&x.X)
			inExpr(&x.Y)
		case *ast.MuxExpr:
			inExpr(&x.Cond)
			inExpr(&x.Then)
			inExpr(&x.Else)
		case *ast.CastExpr:
			inExpr(&x.X)
		case *ast.MemberExpr:
			inExpr(&x.X)
		case *ast.SliceExpr:
			inExpr(&x.X)
		case *ast.CallExpr:
			for i := range x.Args {
				inExpr(&x.Args[i])
			}
		}
	}
	inExpr = func(slot *ast.Expr) {
		if *slot == nil {
			return
		}
		if lit, ok := (*slot).(*ast.IntLit); ok && lit.Width > 0 {
			s := slot
			sites = append(sites, intLitSite{lit: lit, replace: func(e ast.Expr) { *s = e }})
			return
		}
		collect(*slot)
	}
	for _, b := range bodyLists(prog) {
		for _, s := range *b {
			switch s := s.(type) {
			case *ast.AssignStmt:
				inExpr(&s.RHS)
			case *ast.VarDeclStmt:
				inExpr(&s.Init)
			case *ast.IfStmt:
				inExpr(&s.Cond)
			case *ast.CallStmt:
				for i := range s.Call.Args {
					inExpr(&s.Call.Args[i])
				}
			case *ast.ReturnStmt:
				inExpr(&s.Value)
			case *ast.SwitchStmt:
				inExpr(&s.Tag)
			}
		}
	}
	return sites
}

// ---------------------------------------------------------------------------
// Statement mutators.

// stmtDuplicate clones a non-declaration statement and inserts the copy
// right after the original. Assignments, calls and branches are all
// re-executable, so the result stays well-typed by construction.
func stmtDuplicate(r *rand.Rand, prog, _ *ast.Program) bool {
	var cands []struct {
		list *[]ast.Stmt
		i    int
	}
	for _, b := range bodyLists(prog) {
		for i, s := range *b {
			if isDecl(s) {
				continue
			}
			switch s.(type) {
			case *ast.ExitStmt, *ast.ReturnStmt:
				continue // duplicating a terminator is dead code at best
			}
			cands = append(cands, struct {
				list *[]ast.Stmt
				i    int
			}{b, i})
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := cands[r.Intn(len(cands))]
	list := *c.list
	dup := ast.CloneStmt(list[c.i])
	out := append(append([]ast.Stmt{}, list[:c.i+1]...), dup)
	out = append(out, list[c.i+1:]...)
	*c.list = out
	return true
}

// stmtSwap exchanges two adjacent statements inside a declaration-free
// segment — scope-safe by construction.
func stmtSwap(r *rand.Rand, prog, _ *ast.Program) bool {
	var cands []struct {
		list *[]ast.Stmt
		i    int
	}
	for _, b := range bodyLists(prog) {
		for i := 0; i+1 < len(*b); i++ {
			if isDecl((*b)[i]) || isDecl((*b)[i+1]) {
				continue
			}
			cands = append(cands, struct {
				list *[]ast.Stmt
				i    int
			}{b, i})
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := cands[r.Intn(len(cands))]
	list := *c.list
	list[c.i], list[c.i+1] = list[c.i+1], list[c.i]
	return true
}

// stmtSplice moves one non-declaration statement to a different position
// within its declaration-free segment (a long-range reorder, where
// stmtSwap is the adjacent special case).
func stmtSplice(r *rand.Rand, prog, _ *ast.Program) bool {
	var cands []struct {
		list   *[]ast.Stmt
		i      int
		lo, hi int
	}
	for _, b := range bodyLists(prog) {
		for i, s := range *b {
			if isDecl(s) {
				continue
			}
			lo, hi := segment(*b, i)
			if hi-lo < 2 {
				continue
			}
			cands = append(cands, struct {
				list   *[]ast.Stmt
				i      int
				lo, hi int
			}{b, i, lo, hi})
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := cands[r.Intn(len(cands))]
	list := *c.list
	s := list[c.i]
	rest := append(append([]ast.Stmt{}, list[:c.i]...), list[c.i+1:]...)
	// Pick the insert position in post-removal coordinates; k == i would
	// rebuild the original order, so it is excluded from the draw.
	k := c.lo + r.Intn(c.hi-c.lo-1)
	if k >= c.i {
		k++
	}
	out := append(append([]ast.Stmt{}, rest[:k]...), s)
	out = append(out, rest[k:]...)
	*c.list = out
	return true
}

// ---------------------------------------------------------------------------
// Expression mutators.

// closedExpr reports whether e contains no identifiers or calls (so it is
// meaningful outside its original scope) and returns its bit width, or
// ok=false for boolean/unsized/non-relocatable expressions.
func closedExpr(e ast.Expr) (width int, ok bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		if e.Width > 0 {
			return e.Width, true
		}
	case *ast.UnaryExpr:
		if e.Op == ast.OpNeg || e.Op == ast.OpBitNot {
			return closedExpr(e.X)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpSatAdd, ast.OpSatSub,
			ast.OpBitAnd, ast.OpBitOr, ast.OpBitXor:
			wx, okx := closedExpr(e.X)
			_, oky := closedExpr(e.Y)
			if okx && oky {
				return wx, true
			}
		case ast.OpShl, ast.OpShr:
			wx, okx := closedExpr(e.X)
			_, oky := closedExpr(e.Y)
			if okx && oky {
				return wx, true
			}
		case ast.OpConcat:
			wx, okx := closedExpr(e.X)
			wy, oky := closedExpr(e.Y)
			if okx && oky {
				return wx + wy, true
			}
		}
	case *ast.CastExpr:
		bt, isBit := e.To.(*ast.BitType)
		if !isBit {
			return 0, false
		}
		if _, ok := closedExpr(e.X); ok {
			return bt.Width, true
		}
	case *ast.SliceExpr:
		if _, ok := closedExpr(e.X); ok {
			return e.Hi - e.Lo + 1, true
		}
	}
	return 0, false
}

// donorExprs harvests closed subexpressions from a program, grouped by
// width, in deterministic walk order. Trivial literals are skipped — the
// graft should transplant structure, not constants.
func donorExprs(prog *ast.Program) map[int][]ast.Expr {
	out := map[int][]ast.Expr{}
	var visit func(e ast.Expr)
	visit = func(e ast.Expr) {
		if e == nil {
			return
		}
		if _, isLit := e.(*ast.IntLit); !isLit {
			if w, ok := closedExpr(e); ok {
				out[w] = append(out[w], e)
				return // children are part of the harvested tree
			}
		}
		ast.Inspect(e, func(x ast.Expr) bool {
			if x == e {
				return true
			}
			visit(x)
			return false
		})
	}
	for _, b := range bodyLists(prog) {
		for _, s := range *b {
			switch s := s.(type) {
			case *ast.AssignStmt:
				visit(s.RHS)
			case *ast.VarDeclStmt:
				visit(s.Init)
			case *ast.IfStmt:
				visit(s.Cond)
			case *ast.ReturnStmt:
				visit(s.Value)
			}
		}
	}
	return out
}

// exprGraft transplants a closed (identifier-free) expression from the
// donor program over a same-width literal in the base — cross-seed
// recombination that stays well-typed by construction.
func exprGraft(r *rand.Rand, prog, donor *ast.Program) bool {
	if donor == nil {
		return false
	}
	sites := intLitSites(prog)
	if len(sites) == 0 {
		return false
	}
	pool := donorExprs(donor)
	// Deterministic site order; try a random rotation until a width match.
	start := r.Intn(len(sites))
	for k := 0; k < len(sites); k++ {
		site := sites[(start+k)%len(sites)]
		cands := pool[site.lit.Width]
		if len(cands) == 0 {
			continue
		}
		site.replace(ast.CloneExpr(cands[r.Intn(len(cands))]))
		return true
	}
	return false
}

// constTweak perturbs one integer literal: increment, decrement,
// complement, zero, all-ones or a fresh random value. Switch labels and
// select-case values stay literal (they are mutated in place), so every
// constant context in the program is fair game.
func constTweak(r *rand.Rand, prog, _ *ast.Program) bool {
	var lits []*ast.IntLit
	for _, site := range intLitSites(prog) {
		lits = append(lits, site.lit)
	}
	// Constant-only contexts: switch labels and parser select values.
	for _, b := range bodyLists(prog) {
		for _, s := range *b {
			if sw, ok := s.(*ast.SwitchStmt); ok {
				for i := range sw.Cases {
					for _, l := range sw.Cases[i].Labels {
						if lit, ok := l.(*ast.IntLit); ok && lit.Width > 0 {
							lits = append(lits, lit)
						}
					}
				}
			}
		}
	}
	for _, d := range prog.Decls {
		if pd, ok := d.(*ast.ParserDecl); ok {
			for i := range pd.States {
				if sel, ok := pd.States[i].Trans.(*ast.TransSelect); ok {
					for _, c := range sel.Cases {
						if c.Value != nil && c.Value.Width > 0 {
							lits = append(lits, c.Value)
						}
					}
				}
			}
		}
	}
	if len(lits) == 0 {
		return false
	}
	lit := lits[r.Intn(len(lits))]
	old := lit.Val
	switch r.Intn(6) {
	case 0:
		lit.Val = ast.MaskWidth(lit.Val+1, lit.Width)
	case 1:
		lit.Val = ast.MaskWidth(lit.Val-1, lit.Width)
	case 2:
		lit.Val = ast.MaskWidth(^lit.Val, lit.Width)
	case 3:
		lit.Val = 0
	case 4:
		lit.Val = ast.MaskWidth(^uint64(0), lit.Width)
	default:
		lit.Val = ast.MaskWidth(r.Uint64(), lit.Width)
	}
	if lit.Val == old {
		// The draw landed on the current value (zeroing an already-zero
		// literal, a random collision); +1 mod 2^w always moves.
		lit.Val = ast.MaskWidth(old+1, lit.Width)
	}
	return true
}

// widthTweakChoices are the intermediate widths the double-cast routes
// through (the generator's realistic field sizes).
var widthTweakChoices = []int{1, 2, 4, 7, 8, 12, 16, 24, 32, 48}

// widthTweak replaces a literal K of width w with (bit<w>)((bit<w2>)K'):
// a width-perturbing round trip that is well-typed by construction and
// exercises cast folding, truncation and extension plumbing.
func widthTweak(r *rand.Rand, prog, _ *ast.Program) bool {
	sites := intLitSites(prog)
	if len(sites) == 0 {
		return false
	}
	site := sites[r.Intn(len(sites))]
	w := site.lit.Width
	w2 := widthTweakChoices[r.Intn(len(widthTweakChoices))]
	inner := &ast.IntLit{Width: w2, Val: ast.MaskWidth(site.lit.Val, w2)}
	site.replace(&ast.CastExpr{
		To: &ast.BitType{Width: w},
		X:  &ast.CastExpr{To: &ast.BitType{Width: w2}, X: inner},
	})
	return true
}

// ---------------------------------------------------------------------------
// Control-flow and structure mutators.

// ifToSwitch rewrites "if (e == K) A else B" into "switch (e) { K: A;
// default: B; }" — semantically equivalent, but a different statement
// shape for predication, def-use and dead-code passes to chew on.
func ifToSwitch(r *rand.Rand, prog, _ *ast.Program) bool {
	var cands []struct {
		list *[]ast.Stmt
		i    int
	}
	for _, b := range bodyLists(prog) {
		for i, s := range *b {
			iff, ok := s.(*ast.IfStmt)
			if !ok {
				continue
			}
			bin, ok := iff.Cond.(*ast.BinaryExpr)
			if !ok || bin.Op != ast.OpEq {
				continue
			}
			_, xLit := bin.X.(*ast.IntLit)
			yLit, yIsLit := bin.Y.(*ast.IntLit)
			// Need exactly one literal side, and the tag side must be a
			// bit expression (it is: == with a sized literal forces it).
			if xLit == yIsLit {
				continue
			}
			if yIsLit && yLit.Width == 0 {
				continue
			}
			if xl, ok := bin.X.(*ast.IntLit); ok && xl.Width == 0 {
				continue
			}
			cands = append(cands, struct {
				list *[]ast.Stmt
				i    int
			}{b, i})
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := cands[r.Intn(len(cands))]
	iff := (*c.list)[c.i].(*ast.IfStmt)
	bin := iff.Cond.(*ast.BinaryExpr)
	tag, lit := bin.X, bin.Y
	if l, ok := bin.X.(*ast.IntLit); ok {
		tag, lit = bin.Y, l
	}
	var def *ast.BlockStmt
	switch els := iff.Else.(type) {
	case nil:
		def = &ast.BlockStmt{}
	case *ast.BlockStmt:
		def = els
	default:
		def = ast.Block(els)
	}
	(*c.list)[c.i] = &ast.SwitchStmt{
		Tag: tag,
		Cases: []ast.SwitchCase{
			{Labels: []ast.Expr{lit}, Body: iff.Then},
			{Body: def},
		},
	}
	return true
}

// tableAddAction adds an in-scope control-plane action (directionless
// parameters only) to a table's action list, occasionally promoting it to
// the default action with fresh literal arguments — a table-shape
// perturbation the control plane could legally perform.
func tableAddAction(r *rand.Rand, prog, _ *ast.Program) bool {
	type cand struct {
		table  *ast.TableDecl
		action *ast.ActionDecl
	}
	var cands []cand
	for _, d := range prog.Decls {
		c, ok := d.(*ast.ControlDecl)
		if !ok {
			continue
		}
		for _, t := range c.Tables() {
			listed := map[string]bool{}
			for _, a := range t.Actions {
				listed[a.Name] = true
			}
			for _, a := range c.Actions() {
				if listed[a.Name] {
					continue
				}
				plain := true
				for _, p := range a.Params {
					if p.Dir != ast.DirNone {
						plain = false
						break
					}
				}
				if plain {
					cands = append(cands, cand{t, a})
				}
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	pick := cands[r.Intn(len(cands))]
	pick.table.Actions = append(pick.table.Actions, ast.ActionRef{Name: pick.action.Name})
	if r.Intn(2) == 0 {
		ref := ast.ActionRef{Name: pick.action.Name}
		for _, p := range pick.action.Params {
			if bt, ok := p.Type.(*ast.BitType); ok {
				ref.Args = append(ref.Args, ast.Num(bt.Width, r.Uint64()))
			}
		}
		pick.table.Default = &ref
	}
	return true
}

// parserStateInsert splices a fresh pass-through state into a direct
// transition: start -> S becomes start -> mut_k -> S. Semantically the
// identity, but it changes the parser's state graph — the shape the
// parser-coverage features key on.
func parserStateInsert(r *rand.Rand, prog, _ *ast.Program) bool {
	type cand struct {
		parser *ast.ParserDecl
		state  int
	}
	var cands []cand
	for _, d := range prog.Decls {
		pd, ok := d.(*ast.ParserDecl)
		if !ok {
			continue
		}
		for i := range pd.States {
			if _, ok := pd.States[i].Trans.(*ast.TransDirect); ok {
				cands = append(cands, cand{pd, i})
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := cands[r.Intn(len(cands))]
	taken := map[string]bool{}
	for i := range c.parser.States {
		taken[c.parser.States[i].Name] = true
	}
	name := ""
	for k := 0; ; k++ {
		name = fmt.Sprintf("mut_s%d", k)
		if !taken[name] {
			break
		}
	}
	tr := c.parser.States[c.state].Trans.(*ast.TransDirect)
	c.parser.States = append(c.parser.States, ast.ParserState{
		Name:  name,
		Trans: &ast.TransDirect{Next: tr.Next},
	})
	c.parser.States[c.state].Trans = &ast.TransDirect{Next: name}
	return true
}
