package solver

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gauntlet/internal/smt"
)

// gateOp tags the node kind in the structural gate cache.
type gateOp uint8

const (
	gAnd gateOp = iota
	gXor
	gMux
)

// gateKey identifies one gate structurally: operator plus normalized
// input literals (c is the select input for muxes, 0 otherwise).
type gateKey struct {
	op      gateOp
	a, b, c Lit
}

// gatesBuiltTotal and gatesReusedTotal are process-wide counters across
// every blaster (blasters are per-query and short-lived, so instance
// counters alone would vanish with them). The engine surfaces the reuse
// rate in Stats.
var gatesBuiltTotal, gatesReusedTotal atomic.Uint64

// GateStats reports the cumulative structural gate-cache counters across
// all blasters in the process: gates encoded fresh (new SAT variable plus
// clauses) and gate constructions answered by an existing literal.
func GateStats() (built, reused uint64) {
	return gatesBuiltTotal.Load(), gatesReusedTotal.Load()
}

// Blaster lowers smt terms to CNF over a SAT solver. Shared subterms
// (by pointer) are encoded once, and below the term level every gate is
// structurally hashed: two-input AND/XOR/MUX nodes are normalized
// (operand order, negation polarity) and cached, so structure repeated
// anywhere in the formula — the A-side and B-side of a near-identical
// miter, two adders over the same operands, symmetric comparisons —
// resolves to the same literal instead of fresh variables and clauses.
type Blaster struct {
	sat       *SAT
	cacheBV   map[*smt.Term][]Lit
	cacheB    map[*smt.Term]Lit
	vars      map[string][]Lit // input variable name → bit literals (LSB first)
	gates     map[gateKey]Lit
	lTrue     Lit
	gateBuilt uint64
	gateReuse uint64
}

// blasters holds the blasters, each with its SAT, of closed sessions,
// reset, for NewBlaster to reuse.
var blasters sync.Pool

// NewBlaster creates a blaster over a fresh SAT instance. It takes a
// closed session's blaster from the pool when there is one: reset has
// cleared its maps and returned its SAT to the zero solver, so it blasts
// and solves exactly as a new one would, on storage already grown.
func NewBlaster() *Blaster {
	b, _ := blasters.Get().(*Blaster)
	if b == nil {
		b = &Blaster{
			sat:     &SAT{},
			cacheBV: map[*smt.Term][]Lit{},
			cacheB:  map[*smt.Term]Lit{},
			vars:    map[string][]Lit{},
			gates:   map[gateKey]Lit{},
		}
	}
	return b.init()
}

// init gives a new or reset blaster its first variable, the constant true.
func (b *Blaster) init() *Blaster {
	b.lTrue = b.fresh()
	b.sat.AddClause(b.lTrue)
	return b
}

// reset empties the blaster for reuse: the four maps are cleared, so a
// pooled blaster holds no term of the session it served, and the SAT
// becomes the zero solver. The maps and arrays keep their storage.
func (b *Blaster) reset() {
	clear(b.cacheBV)
	clear(b.cacheB)
	clear(b.vars)
	clear(b.gates)
	b.lTrue, b.gateBuilt, b.gateReuse = 0, 0, 0
	b.sat.reset()
}

// SAT exposes the underlying solver (for budgets and statistics).
func (b *Blaster) SAT() *SAT { return b.sat }

// GateStats reports this blaster's structural gate-cache counters.
func (b *Blaster) GateStats() (built, reused uint64) {
	return b.gateBuilt, b.gateReuse
}

func (b *Blaster) lFalse() Lit { return b.lTrue.Neg() }

func (b *Blaster) fresh() Lit { return Lit(b.sat.NewVar()) }

// constBit returns the literal for a constant bit.
func (b *Blaster) constBit(v bool) Lit {
	if v {
		return b.lTrue
	}
	return b.lFalse()
}

// gateLookup consults the structural gate cache; build runs on a miss and
// its output is recorded under the key.
func (b *Blaster) gateLookup(k gateKey, build func() Lit) Lit {
	if o, ok := b.gates[k]; ok {
		b.gateReuse++
		gatesReusedTotal.Add(1)
		return o
	}
	o := build()
	b.gates[k] = o
	b.gateBuilt++
	gatesBuiltTotal.Add(1)
	return o
}

// gateAnd returns o <-> x & y. The cache key is negation-normalized only
// by operand order: AND(x, ¬y) and AND(¬y, x) share a node, and OR shares
// through De Morgan (gateOr encodes ¬AND(¬x, ¬y)).
func (b *Blaster) gateAnd(x, y Lit) Lit {
	if x == b.lFalse() || y == b.lFalse() {
		return b.lFalse()
	}
	if x == b.lTrue {
		return y
	}
	if y == b.lTrue {
		return x
	}
	if x == y {
		return x
	}
	if x == y.Neg() {
		return b.lFalse()
	}
	if y < x {
		x, y = y, x
	}
	return b.gateLookup(gateKey{op: gAnd, a: x, b: y}, func() Lit {
		o := b.fresh()
		b.sat.AddClause(x.Neg(), y.Neg(), o)
		b.sat.AddClause(x, o.Neg())
		b.sat.AddClause(y, o.Neg())
		return o
	})
}

// gateOr returns o <-> x | y.
func (b *Blaster) gateOr(x, y Lit) Lit {
	return b.gateAnd(x.Neg(), y.Neg()).Neg()
}

// gateXor returns o <-> x ^ y. Negation normalization: input polarity
// commutes out of XOR (¬x ⊕ y = ¬(x ⊕ y)), so the cache key uses the
// positive literals and the output absorbs the parity — all four polarity
// variants of one XOR share a single node.
func (b *Blaster) gateXor(x, y Lit) Lit {
	if x == b.lFalse() {
		return y
	}
	if y == b.lFalse() {
		return x
	}
	if x == b.lTrue {
		return y.Neg()
	}
	if y == b.lTrue {
		return x.Neg()
	}
	if x == y {
		return b.lFalse()
	}
	if x == y.Neg() {
		return b.lTrue
	}
	flip := false
	if x < 0 {
		x, flip = x.Neg(), !flip
	}
	if y < 0 {
		y, flip = y.Neg(), !flip
	}
	if y < x {
		x, y = y, x
	}
	o := b.gateLookup(gateKey{op: gXor, a: x, b: y}, func() Lit {
		o := b.fresh()
		b.sat.AddClause(x.Neg(), y.Neg(), o.Neg())
		b.sat.AddClause(x, y, o.Neg())
		b.sat.AddClause(x.Neg(), y, o)
		b.sat.AddClause(x, y.Neg(), o)
		return o
	})
	if flip {
		return o.Neg()
	}
	return o
}

// gateMux returns o <-> (c ? t : e). Normalization: a negated select
// swaps the branches, opposite branches degrade to XOR, and jointly
// negated branches factor the negation out of the node (¬t/¬e mux =
// ¬(t/e mux)), so every polarity arrangement of one mux shares a node.
func (b *Blaster) gateMux(c, t, e Lit) Lit {
	if c == b.lTrue {
		return t
	}
	if c == b.lFalse() {
		return e
	}
	if t == e {
		return t
	}
	if c < 0 {
		c, t, e = c.Neg(), e, t
	}
	if t == e.Neg() {
		// (c ? t : ¬t) = ¬(c ⊕ t).
		return b.gateXor(c, t).Neg()
	}
	if t == b.lTrue {
		return b.gateOr(c, e)
	}
	if t == b.lFalse() {
		return b.gateAnd(c.Neg(), e)
	}
	if e == b.lTrue {
		return b.gateOr(c.Neg(), t)
	}
	if e == b.lFalse() {
		return b.gateAnd(c, t)
	}
	if t == c {
		// (c ? c : e) = c | e  — selecting the select itself.
		return b.gateOr(c, e)
	}
	if e == c {
		// (c ? t : c) = c & t.
		return b.gateAnd(c, t)
	}
	if t == c.Neg() {
		// (c ? ¬c : e) = ¬c & e.
		return b.gateAnd(c.Neg(), e)
	}
	if e == c.Neg() {
		// (c ? t : ¬c) = ¬c | t.
		return b.gateOr(c.Neg(), t)
	}
	flip := false
	if t < 0 && e < 0 {
		t, e, flip = t.Neg(), e.Neg(), true
	}
	o := b.gateLookup(gateKey{op: gMux, a: t, b: e, c: c}, func() Lit {
		o := b.fresh()
		b.sat.AddClause(c.Neg(), t.Neg(), o)
		b.sat.AddClause(c.Neg(), t, o.Neg())
		b.sat.AddClause(c, e.Neg(), o)
		b.sat.AddClause(c, e, o.Neg())
		return o
	})
	if flip {
		return o.Neg()
	}
	return o
}

// fullAdder returns (sum, carry) for x + y + cin.
func (b *Blaster) fullAdder(x, y, cin Lit) (Lit, Lit) {
	xy := b.gateXor(x, y)
	sum := b.gateXor(xy, cin)
	carry := b.gateOr(b.gateAnd(x, y), b.gateAnd(xy, cin))
	return sum, carry
}

// adder computes x + y + cin over equal-width vectors (LSB first).
func (b *Blaster) adder(x, y []Lit, cin Lit) []Lit {
	out := make([]Lit, len(x))
	c := cin
	for i := range x {
		out[i], c = b.fullAdder(x[i], y[i], c)
	}
	return out
}

func (b *Blaster) negVec(x []Lit) []Lit {
	inv := make([]Lit, len(x))
	for i, l := range x {
		inv[i] = l.Neg()
	}
	// two's complement: ~x + 1
	zero := make([]Lit, len(x))
	for i := range zero {
		zero[i] = b.lFalse()
	}
	return b.adder(inv, zero, b.lTrue)
}

// eqVec returns a literal true iff the vectors are equal.
func (b *Blaster) eqVec(x, y []Lit) Lit {
	acc := b.lTrue
	for i := range x {
		acc = b.gateAnd(acc, b.gateXor(x[i], y[i]).Neg())
	}
	return acc
}

// ultVec returns a literal true iff x < y (unsigned).
func (b *Blaster) ultVec(x, y []Lit) Lit {
	lt := b.lFalse()
	for i := 0; i < len(x); i++ { // LSB to MSB; MSB decided last
		bitLt := b.gateAnd(x[i].Neg(), y[i])
		bitEq := b.gateXor(x[i], y[i]).Neg()
		lt = b.gateOr(bitLt, b.gateAnd(bitEq, lt))
	}
	return lt
}

// BlastBool encodes a boolean term and returns its literal.
func (b *Blaster) BlastBool(t *smt.Term) Lit {
	if !t.IsBool() {
		panic(fmt.Sprintf("solver: BlastBool on bitvector term %s", t))
	}
	if l, ok := b.cacheB[t]; ok {
		return l
	}
	var out Lit
	switch t.Op {
	case smt.OpConst:
		out = b.constBit(t.Val == 1)
	case smt.OpVar:
		out = b.inputVar(t)[0]
	case smt.OpNot:
		out = b.BlastBool(t.Args[0]).Neg()
	case smt.OpAnd:
		out = b.lTrue
		for _, a := range t.Args {
			out = b.gateAnd(out, b.BlastBool(a))
		}
	case smt.OpOr:
		out = b.lFalse()
		for _, a := range t.Args {
			out = b.gateOr(out, b.BlastBool(a))
		}
	case smt.OpEq:
		if t.Args[0].IsBool() {
			out = b.gateXor(b.BlastBool(t.Args[0]), b.BlastBool(t.Args[1])).Neg()
		} else {
			out = b.eqVec(b.BlastBV(t.Args[0]), b.BlastBV(t.Args[1]))
		}
	case smt.OpIte:
		out = b.gateMux(b.BlastBool(t.Args[0]), b.BlastBool(t.Args[1]), b.BlastBool(t.Args[2]))
	case smt.OpUlt:
		out = b.ultVec(b.BlastBV(t.Args[0]), b.BlastBV(t.Args[1]))
	case smt.OpUle:
		out = b.ultVec(b.BlastBV(t.Args[1]), b.BlastBV(t.Args[0])).Neg()
	default:
		panic(fmt.Sprintf("solver: unexpected boolean op in %s", t))
	}
	b.cacheB[t] = out
	return out
}

// inputVar returns (allocating on first use) the bit literals of an input
// variable. Boolean variables get a single literal.
func (b *Blaster) inputVar(t *smt.Term) []Lit {
	if lits, ok := b.vars[t.Name]; ok {
		return lits
	}
	n := t.W
	if n == 0 {
		n = 1
	}
	lits := make([]Lit, n)
	for i := range lits {
		lits[i] = b.fresh()
	}
	b.vars[t.Name] = lits
	return lits
}

// BlastBV encodes a bitvector term and returns its bit literals, LSB
// first.
func (b *Blaster) BlastBV(t *smt.Term) []Lit {
	if t.IsBool() {
		panic(fmt.Sprintf("solver: BlastBV on boolean term %s", t))
	}
	if lits, ok := b.cacheBV[t]; ok {
		return lits
	}
	var out []Lit
	switch t.Op {
	case smt.OpConst:
		out = make([]Lit, t.W)
		for i := 0; i < t.W; i++ {
			out[i] = b.constBit(t.Val>>uint(i)&1 == 1)
		}
	case smt.OpVar:
		out = b.inputVar(t)
	case smt.OpIte:
		c := b.BlastBool(t.Args[0])
		x := b.BlastBV(t.Args[1])
		y := b.BlastBV(t.Args[2])
		out = make([]Lit, t.W)
		for i := range out {
			out[i] = b.gateMux(c, x[i], y[i])
		}
	case smt.OpBVAdd:
		out = b.adder(b.BlastBV(t.Args[0]), b.BlastBV(t.Args[1]), b.lFalse())
	case smt.OpBVSub:
		y := b.BlastBV(t.Args[1])
		inv := make([]Lit, len(y))
		for i, l := range y {
			inv[i] = l.Neg()
		}
		out = b.adder(b.BlastBV(t.Args[0]), inv, b.lTrue)
	case smt.OpBVNeg:
		out = b.negVec(b.BlastBV(t.Args[0]))
	case smt.OpBVMul:
		out = b.mul(b.BlastBV(t.Args[0]), b.BlastBV(t.Args[1]))
	case smt.OpBVAnd:
		x, y := b.BlastBV(t.Args[0]), b.BlastBV(t.Args[1])
		out = make([]Lit, t.W)
		for i := range out {
			out[i] = b.gateAnd(x[i], y[i])
		}
	case smt.OpBVOr:
		x, y := b.BlastBV(t.Args[0]), b.BlastBV(t.Args[1])
		out = make([]Lit, t.W)
		for i := range out {
			out[i] = b.gateOr(x[i], y[i])
		}
	case smt.OpBVXor:
		x, y := b.BlastBV(t.Args[0]), b.BlastBV(t.Args[1])
		out = make([]Lit, t.W)
		for i := range out {
			out[i] = b.gateXor(x[i], y[i])
		}
	case smt.OpBVNot:
		x := b.BlastBV(t.Args[0])
		out = make([]Lit, t.W)
		for i := range out {
			out[i] = x[i].Neg()
		}
	case smt.OpBVShl:
		out = b.shift(b.BlastBV(t.Args[0]), b.BlastBV(t.Args[1]), true)
	case smt.OpBVLshr:
		out = b.shift(b.BlastBV(t.Args[0]), b.BlastBV(t.Args[1]), false)
	case smt.OpBVConcat:
		hi := b.BlastBV(t.Args[0])
		lo := b.BlastBV(t.Args[1])
		out = make([]Lit, 0, len(hi)+len(lo))
		out = append(out, lo...)
		out = append(out, hi...)
	case smt.OpBVExtract:
		x := b.BlastBV(t.Args[0])
		out = append([]Lit(nil), x[t.Lo:t.Hi+1]...)
	case smt.OpBVZext:
		x := b.BlastBV(t.Args[0])
		out = make([]Lit, t.W)
		copy(out, x)
		for i := len(x); i < t.W; i++ {
			out[i] = b.lFalse()
		}
	default:
		panic(fmt.Sprintf("solver: unexpected bitvector op in %s", t))
	}
	if len(out) != t.W {
		panic(fmt.Sprintf("solver: blasted width %d != term width %d for %s", len(out), t.W, t))
	}
	b.cacheBV[t] = out
	return out
}

// shift builds a barrel shifter. left selects shl vs lshr. Amounts >= the
// vector width produce zero (P4 semantics, matching smt.Eval).
//
// Only the amount bits whose stage distance stays below the width need a
// mux ladder. Every higher bit can only zero the entire vector, so all of
// them collapse into one "amount ≥ width" indicator OR-ed together and a
// single AND mask per output bit — w+1 gates for the entire high range
// instead of w muxes per amount bit.
func (b *Blaster) shift(x, amt []Lit, left bool) []Lit {
	cur := append([]Lit(nil), x...)
	w := len(x)
	big := b.lFalse() // true iff some stage with distance >= w is active
	for k := 0; k < len(amt); k++ {
		dist := uint64(1) << uint(k)
		if k >= 63 || dist >= uint64(w) {
			big = b.gateOr(big, amt[k])
			continue
		}
		d := int(dist)
		shifted := make([]Lit, w)
		for i := 0; i < w; i++ {
			var src int
			if left {
				src = i - d
			} else {
				src = i + d
			}
			if src < 0 || src >= w {
				shifted[i] = b.lFalse()
			} else {
				shifted[i] = cur[src]
			}
		}
		next := make([]Lit, w)
		for i := 0; i < w; i++ {
			next[i] = b.gateMux(amt[k], shifted[i], cur[i])
		}
		cur = next
	}
	if big != b.lFalse() {
		keep := big.Neg()
		for i := range cur {
			cur[i] = b.gateAnd(cur[i], keep)
		}
	}
	return cur
}

// mul builds a shift-and-add multiplier.
func (b *Blaster) mul(x, y []Lit) []Lit {
	w := len(x)
	acc := make([]Lit, w)
	for i := range acc {
		acc[i] = b.lFalse()
	}
	for i := 0; i < w; i++ {
		// addend = (x << i) & replicate(y[i])
		addend := make([]Lit, w)
		for j := 0; j < w; j++ {
			if j < i {
				addend[j] = b.lFalse()
			} else {
				addend[j] = b.gateAnd(x[j-i], y[i])
			}
		}
		acc = b.adder(acc, addend, b.lFalse())
	}
	return acc
}

// Assert constrains a boolean term to be true.
func (b *Blaster) Assert(t *smt.Term) {
	b.sat.AddClause(b.BlastBool(t))
}

// Model extracts the assignment of all blasted input variables after Sat.
func (b *Blaster) Model() smt.Assignment { return b.modelOf(b.sat.vals) }

// modelOf extracts the input assignment from a copy of the SAT solver's
// per-literal values.
func (b *Blaster) modelOf(vals []int8) smt.Assignment {
	m := make(smt.Assignment, len(b.vars))
	for n, lits := range b.vars {
		var v uint64
		for i, l := range lits {
			bit := vals[2*l.Var()] == 1
			if l < 0 {
				bit = !bit
			}
			if bit {
				v |= 1 << uint(i)
			}
		}
		m[n] = v
	}
	return m
}
