package smt

import (
	"fmt"
	"sync"
)

// Tape is one term DAG compiled into a flat, topologically ordered
// instruction list over bit-plane registers, executed bit-parallel: every
// register plane is one machine word holding one bit position of 64
// independent assignments ("packets"), so a single Run evaluates the
// whole DAG under 64 assignments at once. Bitwise operators cost one word
// op per plane, arithmetic ripples a carry across planes, and masking is
// free — a w-bit value simply has w planes.
//
// A Tape is immutable after compilation and safe to share; the mutable
// execution state lives in TapeExec, which each worker borrows from the
// tape's pool (isolate first, then share: the compiled program is the
// shared half, the plane arena the isolated one).
//
// The concolic fast path compiles each simplified miter once, then runs
// batches of deterministic pseudo-random packets through it: any lane
// where the miter evaluates to false is a concrete counterexample, and
// the equivalence query never reaches the solver. Semantics are pinned to
// smt.Eval exactly (differential-fuzzed, width-edge tested): booleans are
// one plane, boolean variables read their assignment's least-significant
// bit, and shifts with amount >= width yield zero.
type Tape struct {
	insns  []tapeInsn
	consts []tapeConst
	vars   []TapeVar
	roots  []tapeRef
	planes int
	fp     uint64

	pool sync.Pool // *TapeExec
}

// TapeVar describes one input variable of a compiled tape.
type TapeVar struct {
	// Name is the variable name (the Assignment key).
	Name string
	// W is the variable width in bits; 0 marks a boolean (one plane, the
	// assignment's least-significant bit).
	W int

	off int // first plane index
}

// tapeRef addresses one value in the plane arena: w consecutive planes
// starting at off (booleans have w == 1).
type tapeRef struct {
	off, w int32
}

// tapeConst is a constant initialization: planes that never change across
// runs, filled once per executor.
type tapeConst struct {
	off, w int32
	val    uint64
}

// tapeInsn is one flat instruction. a, b, c are operand plane bases
// (c is Ite's else branch), aw the operand width in planes where it can
// differ from the destination width (comparisons, shift amounts, zext and
// concat sources), and args the operand bases of n-ary And/Or.
type tapeInsn struct {
	op      Op
	dst, w  int32
	a, b, c int32
	aw      int32
	args    []int32
}

// CompileTape flattens one or more term DAGs (sharing subterms across
// roots) into a tape. Typical roots: a single boolean miter for
// falsification, or a branch-condition list for trace-steered path
// enumeration. Panics on an unknown operator, like Eval.
func CompileTape(roots ...*Term) *Tape {
	if len(roots) == 0 {
		panic("smt.CompileTape: no roots")
	}
	c := &tapeCompiler{tp: &Tape{}, memo: map[*Term]tapeRef{}}
	for _, r := range roots {
		c.tp.roots = append(c.tp.roots, c.compile(r))
	}
	// The fingerprint is run-stable: canonRank hashes structure only (no
	// interner IDs), so the same formula built in any context, in any
	// order, on any worker count derives the same concolic input stream.
	fp := uint64(0x9e3779b97f4a7c15)
	for _, r := range roots {
		fp ^= canonRank(r)
		fp *= 1099511628211
	}
	c.tp.fp = fp
	c.tp.planes = int(c.next)
	return c.tp
}

type tapeCompiler struct {
	tp   *Tape
	memo map[*Term]tapeRef
	next int32
}

// width returns a term's plane count: booleans occupy one plane.
func planeWidth(t *Term) int32 {
	if t.W == 0 {
		return 1
	}
	return int32(t.W)
}

func (c *tapeCompiler) alloc(w int32) int32 {
	off := c.next
	c.next += w
	return off
}

func (c *tapeCompiler) compile(t *Term) tapeRef {
	if r, ok := c.memo[t]; ok {
		return r
	}
	var r tapeRef
	switch t.Op {
	case OpVar:
		r = tapeRef{off: c.alloc(planeWidth(t)), w: planeWidth(t)}
		c.tp.vars = append(c.tp.vars, TapeVar{Name: t.Name, W: t.W, off: int(r.off)})
	case OpConst:
		r = tapeRef{off: c.alloc(planeWidth(t)), w: planeWidth(t)}
		c.tp.consts = append(c.tp.consts, tapeConst{off: r.off, w: r.w, val: t.Val})
	case OpBVExtract:
		// Extract is free: the argument's planes [Lo, Hi] already are the
		// result — pure register aliasing, no instruction.
		a := c.compile(t.Args[0])
		r = tapeRef{off: a.off + int32(t.Lo), w: int32(t.W)}
	case OpAnd, OpOr:
		args := make([]int32, len(t.Args))
		for i, x := range t.Args {
			args[i] = c.compile(x).off
		}
		r = tapeRef{off: c.alloc(1), w: 1}
		c.tp.insns = append(c.tp.insns, tapeInsn{op: t.Op, dst: r.off, w: 1, args: args})
	case OpNot:
		a := c.compile(t.Args[0])
		r = tapeRef{off: c.alloc(1), w: 1}
		c.tp.insns = append(c.tp.insns, tapeInsn{op: t.Op, dst: r.off, w: 1, a: a.off})
	case OpEq, OpUlt, OpUle:
		a := c.compile(t.Args[0])
		b := c.compile(t.Args[1])
		r = tapeRef{off: c.alloc(1), w: 1}
		c.tp.insns = append(c.tp.insns, tapeInsn{
			op: t.Op, dst: r.off, w: 1, a: a.off, b: b.off, aw: a.w,
		})
	case OpIte:
		cond := c.compile(t.Args[0])
		then := c.compile(t.Args[1])
		els := c.compile(t.Args[2])
		w := planeWidth(t)
		r = tapeRef{off: c.alloc(w), w: w}
		c.tp.insns = append(c.tp.insns, tapeInsn{
			op: t.Op, dst: r.off, w: w, a: cond.off, b: then.off, c: els.off,
		})
	case OpBVAdd, OpBVSub, OpBVMul, OpBVAnd, OpBVOr, OpBVXor:
		a := c.compile(t.Args[0])
		b := c.compile(t.Args[1])
		w := int32(t.W)
		r = tapeRef{off: c.alloc(w), w: w}
		c.tp.insns = append(c.tp.insns, tapeInsn{op: t.Op, dst: r.off, w: w, a: a.off, b: b.off})
	case OpBVNot, OpBVNeg:
		a := c.compile(t.Args[0])
		w := int32(t.W)
		r = tapeRef{off: c.alloc(w), w: w}
		c.tp.insns = append(c.tp.insns, tapeInsn{op: t.Op, dst: r.off, w: w, a: a.off})
	case OpBVShl, OpBVLshr:
		a := c.compile(t.Args[0])
		b := c.compile(t.Args[1])
		w := int32(t.W)
		r = tapeRef{off: c.alloc(w), w: w}
		c.tp.insns = append(c.tp.insns, tapeInsn{
			op: t.Op, dst: r.off, w: w, a: a.off, b: b.off, aw: b.w,
		})
	case OpBVConcat:
		hi := c.compile(t.Args[0])
		lo := c.compile(t.Args[1])
		w := int32(t.W)
		r = tapeRef{off: c.alloc(w), w: w}
		c.tp.insns = append(c.tp.insns, tapeInsn{
			op: t.Op, dst: r.off, w: w, a: hi.off, b: lo.off, aw: lo.w,
		})
	case OpBVZext:
		a := c.compile(t.Args[0])
		w := int32(t.W)
		r = tapeRef{off: c.alloc(w), w: w}
		c.tp.insns = append(c.tp.insns, tapeInsn{op: t.Op, dst: r.off, w: w, a: a.off, aw: a.w})
	default:
		panic(fmt.Sprintf("smt.CompileTape: unknown op %d", t.Op))
	}
	c.memo[t] = r
	return r
}

// Vars returns the tape's input variables in first-use order.
func (tp *Tape) Vars() []TapeVar { return tp.vars }

// Fingerprint is a run-stable structural hash of the compiled roots: it
// depends only on formula structure (never on interner IDs or scheduling),
// so concolic input streams keyed on it are identical across runs, worker
// counts and contexts.
func (tp *Tape) Fingerprint() uint64 { return tp.fp }

// Exec borrows an executor from the tape's pool; return it with Release.
func (tp *Tape) Exec() *TapeExec {
	if e, ok := tp.pool.Get().(*TapeExec); ok {
		return e
	}
	e := &TapeExec{
		tp:     tp,
		planes: make([]uint64, tp.planes),
		lanes:  make([][64]uint64, len(tp.vars)),
	}
	for _, k := range tp.consts {
		for b := int32(0); b < k.w; b++ {
			if k.val>>uint(b)&1 == 1 {
				e.planes[k.off+b] = ^uint64(0)
			}
		}
	}
	return e
}

// Release returns an executor to the pool.
func (tp *Tape) Release(e *TapeExec) { tp.pool.Put(e) }

// TapeExec is the mutable execution state of one tape: the plane arena
// plus the raw per-lane input values (kept so a falsifying lane can be
// reified back into an Assignment). Not safe for concurrent use.
type TapeExec struct {
	tp     *Tape
	planes []uint64
	lanes  [][64]uint64
}

// SetLane installs one assignment into one lane (masked to each
// variable's width; booleans to their least-significant bit, matching
// Eval). Unassigned variables read as zero.
func (e *TapeExec) SetLane(lane int, a Assignment) {
	for vi := range e.tp.vars {
		v := &e.tp.vars[vi]
		val := a[v.Name]
		if v.W == 0 {
			val &= 1
		} else {
			val = mask(val, v.W)
		}
		e.lanes[vi][lane] = val
	}
}

// LaneAssignment reifies one lane's inputs as an Assignment covering
// every tape variable (the witness-packet shape validate stores beside a
// falsified verdict).
func (e *TapeExec) LaneAssignment(lane int) Assignment {
	a := make(Assignment, len(e.tp.vars))
	for vi := range e.tp.vars {
		a[e.tp.vars[vi].Name] = e.lanes[vi][lane]
	}
	return a
}

// Run transposes the installed lane values into bit planes and executes
// the instruction tape over all 64 lanes at once.
func (e *TapeExec) Run() {
	p := e.planes
	// Transpose: plane b of variable v holds bit b of v's value in every
	// lane (lane l at bit position l of the word).
	for vi := range e.tp.vars {
		v := &e.tp.vars[vi]
		w := v.W
		if w == 0 {
			w = 1
		}
		lanes := &e.lanes[vi]
		for b := 0; b < w; b++ {
			var word uint64
			for l := 0; l < 64; l++ {
				word |= (lanes[l] >> uint(b) & 1) << uint(l)
			}
			p[v.off+b] = word
		}
	}
	for i := range e.tp.insns {
		in := &e.tp.insns[i]
		switch in.op {
		case OpNot:
			p[in.dst] = ^p[in.a]
		case OpAnd:
			acc := ^uint64(0)
			for _, a := range in.args {
				acc &= p[a]
			}
			p[in.dst] = acc
		case OpOr:
			var acc uint64
			for _, a := range in.args {
				acc |= p[a]
			}
			p[in.dst] = acc
		case OpEq:
			var diff uint64
			for i := int32(0); i < in.aw; i++ {
				diff |= p[in.a+i] ^ p[in.b+i]
			}
			p[in.dst] = ^diff
		case OpIte:
			c := p[in.a]
			for i := int32(0); i < in.w; i++ {
				p[in.dst+i] = (c & p[in.b+i]) | (^c & p[in.c+i])
			}
		case OpUlt, OpUle:
			// MSB-down comparison: lt latches at the first differing bit
			// where a has 0 and b has 1; eq tracks all-equal-so-far.
			var lt uint64
			eq := ^uint64(0)
			for i := in.aw - 1; i >= 0; i-- {
				av, bv := p[in.a+i], p[in.b+i]
				lt |= eq & ^av & bv
				eq &= ^(av ^ bv)
			}
			if in.op == OpUle {
				lt |= eq
			}
			p[in.dst] = lt
		case OpBVAdd:
			var c uint64
			for i := int32(0); i < in.w; i++ {
				av, bv := p[in.a+i], p[in.b+i]
				s := av ^ bv
				p[in.dst+i] = s ^ c
				c = (av & bv) | (c & s)
			}
		case OpBVSub:
			// a - b = a + ^b + 1: carry-in all-ones.
			c := ^uint64(0)
			for i := int32(0); i < in.w; i++ {
				av, nb := p[in.a+i], ^p[in.b+i]
				s := av ^ nb
				p[in.dst+i] = s ^ c
				c = (av & nb) | (c & s)
			}
		case OpBVMul:
			// Shift-add: for each set bit k of b, ripple-add a<<k into the
			// accumulator. O(w^2) word ops for all 64 lanes together.
			for i := int32(0); i < in.w; i++ {
				p[in.dst+i] = 0
			}
			for k := int32(0); k < in.w; k++ {
				bk := p[in.b+k]
				if bk == 0 {
					continue
				}
				var c uint64
				for i := k; i < in.w; i++ {
					x := p[in.dst+i]
					y := p[in.a+i-k] & bk
					s := x ^ y
					p[in.dst+i] = s ^ c
					c = (x & y) | (c & s)
				}
			}
		case OpBVAnd:
			for i := int32(0); i < in.w; i++ {
				p[in.dst+i] = p[in.a+i] & p[in.b+i]
			}
		case OpBVOr:
			for i := int32(0); i < in.w; i++ {
				p[in.dst+i] = p[in.a+i] | p[in.b+i]
			}
		case OpBVXor:
			for i := int32(0); i < in.w; i++ {
				p[in.dst+i] = p[in.a+i] ^ p[in.b+i]
			}
		case OpBVNot:
			for i := int32(0); i < in.w; i++ {
				p[in.dst+i] = ^p[in.a+i]
			}
		case OpBVNeg:
			// ^a + 1: carry-in all-ones against a zero addend.
			c := ^uint64(0)
			for i := int32(0); i < in.w; i++ {
				na := ^p[in.a+i]
				p[in.dst+i] = na ^ c
				c &= na
			}
		case OpBVShl:
			for i := int32(0); i < in.w; i++ {
				p[in.dst+i] = p[in.a+i]
			}
			for s := int32(0); s < in.aw; s++ {
				c := p[in.b+s]
				if c == 0 {
					continue
				}
				// Amount bits representing >= width force zero in the lanes
				// that set them (Eval: sh >= W yields 0); 1<<6 = 64 already
				// covers the widest value, so the guard also avoids shift
				// overflow.
				if s >= 6 || int32(1)<<uint(s) >= in.w {
					for i := int32(0); i < in.w; i++ {
						p[in.dst+i] &^= c
					}
					continue
				}
				sh := int32(1) << uint(s)
				for i := in.w - 1; i >= 0; i-- {
					var lo uint64
					if i >= sh {
						lo = p[in.dst+i-sh]
					}
					p[in.dst+i] = (c & lo) | (^c & p[in.dst+i])
				}
			}
		case OpBVLshr:
			for i := int32(0); i < in.w; i++ {
				p[in.dst+i] = p[in.a+i]
			}
			for s := int32(0); s < in.aw; s++ {
				c := p[in.b+s]
				if c == 0 {
					continue
				}
				if s >= 6 || int32(1)<<uint(s) >= in.w {
					for i := int32(0); i < in.w; i++ {
						p[in.dst+i] &^= c
					}
					continue
				}
				sh := int32(1) << uint(s)
				for i := int32(0); i < in.w; i++ {
					var hi uint64
					if i+sh < in.w {
						hi = p[in.dst+i+sh]
					}
					p[in.dst+i] = (c & hi) | (^c & p[in.dst+i])
				}
			}
		case OpBVConcat:
			// aw is the low part's plane count: result = lo planes then hi.
			for i := int32(0); i < in.aw; i++ {
				p[in.dst+i] = p[in.b+i]
			}
			for i := in.aw; i < in.w; i++ {
				p[in.dst+i] = p[in.a+i-in.aw]
			}
		case OpBVZext:
			for i := int32(0); i < in.aw; i++ {
				p[in.dst+i] = p[in.a+i]
			}
			for i := in.aw; i < in.w; i++ {
				p[in.dst+i] = 0
			}
		default:
			panic(fmt.Sprintf("smt.TapeExec: unknown op %d", in.op))
		}
	}
}

// RootBits returns root i's plane-0 word after Run. For a boolean root
// bit l is lane l's truth value, so a single word carries 64 verdicts.
func (e *TapeExec) RootBits(i int) uint64 { return e.planes[e.tp.roots[i].off] }

// RootLane un-transposes root i's value in one lane after Run.
func (e *TapeExec) RootLane(i, lane int) uint64 {
	r := e.tp.roots[i]
	var v uint64
	for b := int32(0); b < r.w; b++ {
		v |= (e.planes[r.off+b] >> uint(lane) & 1) << uint(b)
	}
	return v
}

// EvalOnce evaluates root 0 under a single assignment through the tape
// (lane 0 only; the counterexample-replay path in reduction). Equivalent
// to Eval(root, a) by the differential-fuzz contract.
func (tp *Tape) EvalOnce(a Assignment) uint64 {
	e := tp.Exec()
	defer tp.Release(e)
	// SetLane covers every variable, so lane 0 is fully determined by a;
	// stale values in lanes 1..63 are computed but never read.
	e.SetLane(0, a)
	e.Run()
	return e.RootLane(0, 0)
}

// Restrict projects an assignment onto the tape's variables, masked to
// their widths — the canonical witness shape for verdicts.
func (tp *Tape) Restrict(a Assignment) Assignment {
	out := make(Assignment, len(tp.vars))
	for _, v := range tp.vars {
		val := a[v.Name]
		if v.W == 0 {
			val &= 1
		} else {
			val = mask(val, v.W)
		}
		out[v.Name] = val
	}
	return out
}

// splitmix64 is the input-stream PRNG: one multiply-xorshift chain per
// derivation step. Deterministic and stateless — concolic batches are a
// pure function of (seed, fingerprint, variable, round, lane), never of
// wall clock or a shared generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nameSeed hashes a variable name into the input-derivation chain.
func nameSeed(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// FillRound installs one deterministic pseudo-random batch of 64 lanes:
// inputs derive from (seed, tape fingerprint, variable name, round,
// lane). Round 0 reserves lane 0 for the all-zeros packet and lane 1 for
// all-ones — the two cheapest universal falsifiers — with the remaining
// lanes random.
func (e *TapeExec) FillRound(seed uint64, round int) {
	base := splitmix64(seed ^ e.tp.fp ^ uint64(round)*0xd1342543de82ef95)
	for vi := range e.tp.vars {
		v := &e.tp.vars[vi]
		stream := splitmix64(base ^ nameSeed(v.Name))
		for l := 0; l < 64; l++ {
			var val uint64
			switch {
			case round == 0 && l == 0:
				val = 0
			case round == 0 && l == 1:
				val = ^uint64(0)
			default:
				val = splitmix64(stream + uint64(l))
			}
			if v.W == 0 {
				val &= 1
			} else {
				val = mask(val, v.W)
			}
			e.lanes[vi][l] = val
		}
	}
}

// Falsify searches up to rounds batches of 64 deterministic pseudo-random
// packets for an assignment under which root 0 (which must be boolean)
// evaluates to false. It returns the counterexample from the first
// falsifying (round, lane) in order — so the witness is a pure function
// of (seed, formula structure, rounds), identical across runs and worker
// counts — together with the number of packets executed.
func (tp *Tape) Falsify(seed uint64, rounds int) (Assignment, uint64, bool) {
	if len(tp.roots) == 0 || tp.roots[0].w != 1 {
		panic("smt.Tape.Falsify: root 0 is not boolean")
	}
	e := tp.Exec()
	defer tp.Release(e)
	var packets uint64
	for round := 0; round < rounds; round++ {
		e.FillRound(seed, round)
		e.Run()
		packets += 64
		truth := e.RootBits(0)
		if truth == ^uint64(0) {
			continue
		}
		// Lowest false lane first: determinism of the reported witness.
		for l := 0; l < 64; l++ {
			if truth>>uint(l)&1 == 0 {
				return e.LaneAssignment(l), packets, true
			}
		}
	}
	return nil, packets, false
}
