// Package smt implements the quantifier-free bitvector (QF_BV) term
// language Gauntlet's symbolic interpreter targets, replacing the paper's
// use of Z3. Terms are immutable trees built through smart constructors
// that perform constant folding and light algebraic simplification; the
// solver subpackage decides satisfiability by bit-blasting to CNF and
// running a CDCL SAT solver — the same decision procedure Z3 uses for
// QF_BV internally, so decidability and model availability are preserved.
//
// Sorts: boolean (Width 0) and bitvectors of width 1..64.
//
// All construction is routed through a Context — the scoped owner of the
// interner and simplification memo (see Context). Leaf constructors are
// Context methods; composite constructors infer the context from their
// arguments; the package-level constructors build in the process-default
// context.
package smt

import (
	"fmt"
	"strings"
)

// Op enumerates term operators.
type Op int

// Term operators.
const (
	OpVar   Op = iota // named input (Name, W)
	OpConst           // constant (Val, W; W==0 means bool with Val in {0,1})

	// Boolean connectives (W == 0).
	OpNot // 1 arg
	OpAnd // n args
	OpOr  // n args

	// Polymorphic.
	OpEq  // 2 args of equal sort → bool
	OpIte // cond (bool), then, else (equal sorts)

	// Bitvector comparisons → bool.
	OpUlt
	OpUle

	// Bitvector arithmetic/logic (result W = operand W).
	OpBVAdd
	OpBVSub
	OpBVMul
	OpBVAnd
	OpBVOr
	OpBVXor
	OpBVNot
	OpBVNeg
	OpBVShl  // shift amount is args[1], any width
	OpBVLshr // logical shift right

	// Structure.
	OpBVConcat  // args[0] high bits, args[1] low bits; W = sum
	OpBVExtract // bits Hi..Lo of args[0]; W = Hi-Lo+1
	OpBVZext    // zero-extend args[0] to W
)

var opNames = map[Op]string{
	OpVar: "var", OpConst: "const", OpNot: "not", OpAnd: "and", OpOr: "or",
	OpEq: "=", OpIte: "ite", OpUlt: "bvult", OpUle: "bvule",
	OpBVAdd: "bvadd", OpBVSub: "bvsub", OpBVMul: "bvmul",
	OpBVAnd: "bvand", OpBVOr: "bvor", OpBVXor: "bvxor",
	OpBVNot: "bvnot", OpBVNeg: "bvneg", OpBVShl: "bvshl", OpBVLshr: "bvlshr",
	OpBVConcat: "concat", OpBVExtract: "extract", OpBVZext: "zext",
}

// Term is an immutable SMT term. W is the bitvector width, or 0 for
// booleans. Never mutate a Term after construction.
//
// Terms are hash-consed per Context: the smart constructors intern every
// node, so structurally equal terms *of one context* are pointer-equal
// and carry a stable ID (unique process-wide, across contexts) and a
// precomputed structural hash. Build terms only through the
// constructors.
type Term struct {
	Op     Op
	W      int
	Val    uint64 // OpConst
	Name   string // OpVar
	Hi, Lo int    // OpBVExtract
	Args   []*Term

	id   uint64   // process-unique, stable for the process lifetime
	hash uint64   // structural hash (shallow fields + child IDs)
	ctx  *Context // owning context (set at intern time)
}

// ID returns the term's stable interning ID. Structurally equal terms of
// one context share an ID; IDs are small, never reused and unique across
// contexts, which makes them good cache keys for formula-level
// memoization even while contexts rotate.
func (t *Term) ID() uint64 { return t.id }

// Hash returns the term's structural hash (O(1): precomputed when the
// term was interned).
func (t *Term) Hash() uint64 { return t.hash }

// IsBool reports whether the term has boolean sort.
func (t *Term) IsBool() bool { return t.W == 0 }

// IsConst reports whether the term is a constant.
func (t *Term) IsConst() bool { return t.Op == OpConst }

// IsTrue reports whether the term is the boolean constant true.
func (t *Term) IsTrue() bool { return t.Op == OpConst && t.W == 0 && t.Val == 1 }

// IsFalse reports whether the term is the boolean constant false.
func (t *Term) IsFalse() bool { return t.Op == OpConst && t.W == 0 && t.Val == 0 }

func mask(v uint64, w int) uint64 {
	if w <= 0 || w >= 64 {
		return v
	}
	return v & ((1 << uint(w)) - 1)
}

// String renders the term in SMT-LIB-like prefix syntax.
func (t *Term) String() string {
	switch t.Op {
	case OpVar:
		return t.Name
	case OpConst:
		if t.W == 0 {
			if t.Val == 1 {
				return "true"
			}
			return "false"
		}
		return fmt.Sprintf("#b%d[%d]", t.Val, t.W)
	case OpBVExtract:
		return fmt.Sprintf("(extract %d %d %s)", t.Hi, t.Lo, t.Args[0])
	case OpBVZext:
		return fmt.Sprintf("(zext %d %s)", t.W, t.Args[0])
	default:
		var b strings.Builder
		b.WriteByte('(')
		b.WriteString(opNames[t.Op])
		for _, a := range t.Args {
			b.WriteByte(' ')
			b.WriteString(a.String())
		}
		b.WriteByte(')')
		return b.String()
	}
}

// Size returns the number of distinct nodes in the term DAG (shared
// subterms count once — terms built by branch merging share heavily, so a
// tree count would be exponential).
func (t *Term) Size() int {
	seen := map[*Term]bool{}
	var walk func(*Term)
	walk = func(x *Term) {
		if seen[x] {
			return
		}
		seen[x] = true
		for _, a := range x.Args {
			walk(a)
		}
	}
	walk(t)
	return len(seen)
}

// Vars collects the free variables of the term into out (name → width).
// Shared subterms are visited once.
func (t *Term) Vars(out map[string]int) {
	seen := map[*Term]bool{}
	var walk func(*Term)
	walk = func(x *Term) {
		if seen[x] {
			return
		}
		seen[x] = true
		if x.Op == OpVar {
			out[x.Name] = x.W
			return
		}
		for _, a := range x.Args {
			walk(a)
		}
	}
	walk(t)
}

// --- Constructors -----------------------------------------------------
//
// Leaf constructors (Var, Const, Bool) live on Context; the package
// functions below build in the default context. Composite constructors
// infer their context from the arguments via ctxOf, so a formula grown
// from context-owned leaves stays in that context end to end.

// Var creates a bitvector variable of the given width in the default
// context (or boolean when width is 0).
func Var(name string, width int) *Term { return defaultCtx.Var(name, width) }

// BoolVar creates a boolean variable in the default context.
func BoolVar(name string) *Term { return defaultCtx.Var(name, 0) }

// Const creates a bitvector constant in the default context, masked to
// width.
func Const(val uint64, width int) *Term { return defaultCtx.Const(val, width) }

// Bool creates a boolean constant in the default context.
func Bool(v bool) *Term { return defaultCtx.Bool(v) }

// True and False are the default context's boolean constants.
var (
	True  = defaultCtx.True()
	False = defaultCtx.False()
)

func assertBool(t *Term, who string) {
	if !t.IsBool() {
		panic(fmt.Sprintf("smt.%s: operand %s is not boolean", who, t))
	}
}

func assertBV(t *Term, who string) {
	if t.IsBool() {
		panic(fmt.Sprintf("smt.%s: operand %s is not a bitvector", who, t))
	}
}

func assertSameSort(a, b *Term, who string) {
	if a.W != b.W {
		panic(fmt.Sprintf("smt.%s: sort mismatch %d vs %d (%s vs %s)", who, a.W, b.W, a, b))
	}
}

// Not negates a boolean term.
func Not(x *Term) *Term {
	assertBool(x, "Not")
	if x.IsConst() {
		return x.ctx.Bool(x.Val == 0)
	}
	if x.Op == OpNot {
		return x.Args[0]
	}
	return x.ctx.intern(&Term{Op: OpNot, Args: []*Term{x}})
}

// And conjoins boolean terms, folding constants.
func And(xs ...*Term) *Term {
	c := ctxOf(xs...)
	var args []*Term
	for _, x := range xs {
		assertBool(x, "And")
		if x.IsFalse() {
			return c.False()
		}
		if x.IsTrue() {
			continue
		}
		if x.Op == OpAnd {
			args = append(args, x.Args...)
			continue
		}
		args = append(args, x)
	}
	switch len(args) {
	case 0:
		return c.True()
	case 1:
		return args[0]
	}
	return c.intern(&Term{Op: OpAnd, Args: args})
}

// Or disjoins boolean terms, folding constants.
func Or(xs ...*Term) *Term {
	c := ctxOf(xs...)
	var args []*Term
	for _, x := range xs {
		assertBool(x, "Or")
		if x.IsTrue() {
			return c.True()
		}
		if x.IsFalse() {
			continue
		}
		if x.Op == OpOr {
			args = append(args, x.Args...)
			continue
		}
		args = append(args, x)
	}
	switch len(args) {
	case 0:
		return c.False()
	case 1:
		return args[0]
	}
	return c.intern(&Term{Op: OpOr, Args: args})
}

// Eq builds equality between two terms of the same sort.
func Eq(a, b *Term) *Term {
	assertSameSort(a, b, "Eq")
	c := ctxOf(a, b)
	if a.IsConst() && b.IsConst() {
		return c.Bool(a.Val == b.Val)
	}
	if a == b {
		return c.True()
	}
	// Boolean equality with constant folds to identity/negation.
	if a.IsBool() {
		if a.IsTrue() {
			return b
		}
		if b.IsTrue() {
			return a
		}
		if a.IsFalse() {
			return Not(b)
		}
		if b.IsFalse() {
			return Not(a)
		}
	}
	return c.intern(&Term{Op: OpEq, Args: []*Term{a, b}})
}

// Ne builds disequality.
func Ne(a, b *Term) *Term { return Not(Eq(a, b)) }

// Ite builds if-then-else; cond must be boolean, branches of equal sort.
func Ite(cond, then, els *Term) *Term {
	assertBool(cond, "Ite")
	assertSameSort(then, els, "Ite")
	if cond.IsTrue() {
		return then
	}
	if cond.IsFalse() {
		return els
	}
	if then == els {
		return then
	}
	if then.IsConst() && els.IsConst() && then.Val == els.Val {
		return then
	}
	// Boolean ITE with constant branches is the condition itself (or its
	// negation).
	if then.IsBool() {
		if then.IsTrue() && els.IsFalse() {
			return cond
		}
		if then.IsFalse() && els.IsTrue() {
			return Not(cond)
		}
	}
	// Redundant nested guards (shared condition object): the inner branch
	// is already selected by the outer condition.
	if then.Op == OpIte && then.Args[0] == cond {
		then = then.Args[1]
	}
	if els.Op == OpIte && els.Args[0] == cond {
		els = els.Args[2]
	}
	if then == els {
		return then
	}
	return ctxOf(cond, then, els).intern(&Term{Op: OpIte, W: then.W, Args: []*Term{cond, then, els}})
}

// Ult builds unsigned less-than.
func Ult(a, b *Term) *Term {
	assertBV(a, "Ult")
	assertSameSort(a, b, "Ult")
	c := ctxOf(a, b)
	if a.IsConst() && b.IsConst() {
		return c.Bool(a.Val < b.Val)
	}
	return c.intern(&Term{Op: OpUlt, Args: []*Term{a, b}})
}

// Ule builds unsigned less-or-equal.
func Ule(a, b *Term) *Term {
	assertBV(a, "Ule")
	assertSameSort(a, b, "Ule")
	c := ctxOf(a, b)
	if a.IsConst() && b.IsConst() {
		return c.Bool(a.Val <= b.Val)
	}
	return c.intern(&Term{Op: OpUle, Args: []*Term{a, b}})
}

// Ugt and Uge are the flipped comparisons.
func Ugt(a, b *Term) *Term { return Ult(b, a) }

// Uge builds unsigned greater-or-equal.
func Uge(a, b *Term) *Term { return Ule(b, a) }

func bvBin(op Op, a, b *Term, fold func(x, y uint64) uint64) *Term {
	assertBV(a, opNames[op])
	assertSameSort(a, b, opNames[op])
	c := ctxOf(a, b)
	if a.IsConst() && b.IsConst() {
		return c.Const(fold(a.Val, b.Val), a.W)
	}
	return c.intern(&Term{Op: op, W: a.W, Args: []*Term{a, b}})
}

// Add builds bitvector addition (modular).
func Add(a, b *Term) *Term {
	if b.IsConst() && b.Val == 0 {
		return a
	}
	if a.IsConst() && a.Val == 0 {
		return b
	}
	return bvBin(OpBVAdd, a, b, func(x, y uint64) uint64 { return x + y })
}

// Sub builds bitvector subtraction (modular).
func Sub(a, b *Term) *Term {
	if b.IsConst() && b.Val == 0 {
		return a
	}
	return bvBin(OpBVSub, a, b, func(x, y uint64) uint64 { return x - y })
}

// Mul builds bitvector multiplication (modular).
func Mul(a, b *Term) *Term {
	if b.IsConst() && b.Val == 1 {
		return a
	}
	if a.IsConst() && a.Val == 1 {
		return b
	}
	if (a.IsConst() && a.Val == 0) || (b.IsConst() && b.Val == 0) {
		return ctxOf(a, b).Const(0, a.W)
	}
	return bvBin(OpBVMul, a, b, func(x, y uint64) uint64 { return x * y })
}

// BVAnd builds bitwise and.
func BVAnd(a, b *Term) *Term {
	if a.IsConst() && a.Val == 0 || b.IsConst() && b.Val == 0 {
		return ctxOf(a, b).Const(0, a.W)
	}
	if a.IsConst() && a.Val == mask(^uint64(0), a.W) {
		return b
	}
	if b.IsConst() && b.Val == mask(^uint64(0), b.W) {
		return a
	}
	return bvBin(OpBVAnd, a, b, func(x, y uint64) uint64 { return x & y })
}

// BVOr builds bitwise or.
func BVOr(a, b *Term) *Term {
	if a.IsConst() && a.Val == 0 {
		return b
	}
	if b.IsConst() && b.Val == 0 {
		return a
	}
	return bvBin(OpBVOr, a, b, func(x, y uint64) uint64 { return x | y })
}

// BVXor builds bitwise xor.
func BVXor(a, b *Term) *Term {
	if a.IsConst() && a.Val == 0 {
		return b
	}
	if b.IsConst() && b.Val == 0 {
		return a
	}
	if a == b {
		return a.ctx.Const(0, a.W)
	}
	return bvBin(OpBVXor, a, b, func(x, y uint64) uint64 { return x ^ y })
}

// BVNot builds bitwise complement.
func BVNot(a *Term) *Term {
	assertBV(a, "BVNot")
	if a.IsConst() {
		return a.ctx.Const(^a.Val, a.W)
	}
	if a.Op == OpBVNot {
		return a.Args[0]
	}
	return a.ctx.intern(&Term{Op: OpBVNot, W: a.W, Args: []*Term{a}})
}

// BVNeg builds two's-complement negation.
func BVNeg(a *Term) *Term {
	assertBV(a, "BVNeg")
	if a.IsConst() {
		return a.ctx.Const(^a.Val+1, a.W)
	}
	return a.ctx.intern(&Term{Op: OpBVNeg, W: a.W, Args: []*Term{a}})
}

// Shl builds a left shift. The shift amount b may have any width; amounts
// >= width yield zero (P4 semantics).
func Shl(a, b *Term) *Term {
	assertBV(a, "Shl")
	assertBV(b, "Shl")
	c := ctxOf(a, b)
	if b.IsConst() {
		if b.Val >= uint64(a.W) {
			return c.Const(0, a.W)
		}
		if b.Val == 0 {
			return a
		}
		if a.IsConst() {
			return c.Const(a.Val<<b.Val, a.W)
		}
	}
	return c.intern(&Term{Op: OpBVShl, W: a.W, Args: []*Term{a, b}})
}

// Lshr builds a logical right shift with the same amount semantics as Shl.
func Lshr(a, b *Term) *Term {
	assertBV(a, "Lshr")
	assertBV(b, "Lshr")
	c := ctxOf(a, b)
	if b.IsConst() {
		if b.Val >= uint64(a.W) {
			return c.Const(0, a.W)
		}
		if b.Val == 0 {
			return a
		}
		if a.IsConst() {
			return c.Const(mask(a.Val, a.W)>>b.Val, a.W)
		}
	}
	return c.intern(&Term{Op: OpBVLshr, W: a.W, Args: []*Term{a, b}})
}

// Concat joins hi and lo into a wider vector (hi in the high bits).
func Concat(hi, lo *Term) *Term {
	assertBV(hi, "Concat")
	assertBV(lo, "Concat")
	w := hi.W + lo.W
	if w > 64 {
		panic(fmt.Sprintf("smt.Concat: width %d exceeds 64", w))
	}
	c := ctxOf(hi, lo)
	if hi.IsConst() && lo.IsConst() {
		return c.Const(hi.Val<<uint(lo.W)|lo.Val, w)
	}
	return c.intern(&Term{Op: OpBVConcat, W: w, Args: []*Term{hi, lo}})
}

// Extract selects bits hi..lo (inclusive).
func Extract(x *Term, hi, lo int) *Term {
	assertBV(x, "Extract")
	if lo < 0 || hi < lo || hi >= x.W {
		panic(fmt.Sprintf("smt.Extract: bounds [%d:%d] invalid for width %d", hi, lo, x.W))
	}
	if lo == 0 && hi == x.W-1 {
		return x
	}
	w := hi - lo + 1
	if x.IsConst() {
		return x.ctx.Const(x.Val>>uint(lo), w)
	}
	if x.Op == OpBVExtract {
		return Extract(x.Args[0], x.Lo+hi, x.Lo+lo)
	}
	return x.ctx.intern(&Term{Op: OpBVExtract, W: w, Hi: hi, Lo: lo, Args: []*Term{x}})
}

// ZExt zero-extends x to the given width (identity when equal).
func ZExt(x *Term, width int) *Term {
	assertBV(x, "ZExt")
	if width < x.W || width > 64 {
		panic(fmt.Sprintf("smt.ZExt: cannot extend width %d to %d", x.W, width))
	}
	if width == x.W {
		return x
	}
	if x.IsConst() {
		return x.ctx.Const(x.Val, width)
	}
	return x.ctx.intern(&Term{Op: OpBVZext, W: width, Args: []*Term{x}})
}

// Trunc truncates x to the given width (identity when equal).
func Trunc(x *Term, width int) *Term {
	if width == x.W {
		return x
	}
	return Extract(x, width-1, 0)
}

// SatAdd builds saturating addition via compare-and-select.
func SatAdd(a, b *Term) *Term {
	sum := Add(a, b)
	overflow := Ult(sum, a) // wraparound detection for modular add
	return Ite(overflow, ctxOf(a, b).Const(^uint64(0), a.W), sum)
}

// SatSub builds saturating subtraction via compare-and-select.
func SatSub(a, b *Term) *Term {
	return Ite(Ult(a, b), ctxOf(a, b).Const(0, a.W), Sub(a, b))
}

// BoolToBV converts a boolean to a bitvector 0/1 of the given width.
func BoolToBV(b *Term, width int) *Term {
	return Ite(b, b.ctx.Const(1, width), b.ctx.Const(0, width))
}

// BVToBool converts a bit<1> vector to a boolean.
func BVToBool(x *Term) *Term { return Eq(x, x.ctx.Const(1, x.W)) }
