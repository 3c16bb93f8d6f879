package smt_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"gauntlet/internal/smt"
)

// tapeEval runs one assignment through a compiled tape (lane 0) and
// returns root 0's value — the single-packet view of the bit-parallel
// executor, comparable 1:1 with smt.Eval.
func tapeEval(t *smt.Term, a smt.Assignment) uint64 {
	return smt.CompileTape(t).EvalOnce(a)
}

// randTapeTerm builds a random term over mixed widths, covering every
// operator the tape compiles, with boolean connectives on top. Width
// edges (1, 63, 64) are deliberately in the pool.
func randTapeTerm(r choices, sctx *smt.Context, depth, width int) *smt.Term {
	if depth == 0 {
		switch r.Intn(4) {
		case 0:
			return sctx.Var(fmt.Sprintf("v%d_%d", width, r.Intn(3)), width)
		default:
			return sctx.Const(r.Uint64(), width)
		}
	}
	x := randTapeTerm(r, sctx, depth-1, width)
	y := randTapeTerm(r, sctx, depth-1, width)
	switch r.Intn(14) {
	case 0:
		return smt.Add(x, y)
	case 1:
		return smt.Sub(x, y)
	case 2:
		return smt.Mul(x, y)
	case 3:
		return smt.BVAnd(x, y)
	case 4:
		return smt.BVOr(x, y)
	case 5:
		return smt.BVXor(x, y)
	case 6:
		return smt.BVNot(x)
	case 7:
		return smt.BVNeg(x)
	case 8:
		return smt.Shl(x, y)
	case 9:
		return smt.Lshr(x, y)
	case 10:
		return smt.Ite(smt.Ult(x, y), x, y)
	case 11:
		if width > 1 {
			hi := r.Intn(width)
			lo := r.Intn(hi + 1)
			return smt.ZExt(smt.Extract(x, hi, lo), width)
		}
		return smt.BVNot(x)
	case 12:
		if 2*width <= 64 {
			return smt.Extract(smt.Concat(x, y), width-1, 0)
		}
		return smt.BVAnd(x, y)
	default:
		return smt.Ite(smt.Ule(x, y), y, x)
	}
}

// randBoolTerm wraps bitvector terms in boolean structure (the miter
// shape: conjunctions of equalities and comparisons).
func randBoolTerm(r choices, sctx *smt.Context, width int) *smt.Term {
	atom := func() *smt.Term {
		x := randTapeTerm(r, sctx, 2, width)
		y := randTapeTerm(r, sctx, 2, width)
		switch r.Intn(3) {
		case 0:
			return smt.Eq(x, y)
		case 1:
			return smt.Ult(x, y)
		default:
			return smt.Ule(x, y)
		}
	}
	switch r.Intn(4) {
	case 0:
		return smt.And(atom(), atom())
	case 1:
		return smt.Or(atom(), smt.Not(atom()))
	case 2:
		return smt.Ite(atom(), atom(), atom())
	default:
		return smt.Not(atom())
	}
}

func randAssignment(r *rand.Rand, t *smt.Term) smt.Assignment {
	vars := map[string]int{}
	t.Vars(vars)
	a := smt.Assignment{}
	for name := range vars {
		a[name] = r.Uint64()
	}
	return a
}

// tapeWidths are the term widths the tape's differential checks draw
// from: 1, the word edges 63 and 64, and widths between.
var tapeWidths = []int{1, 4, 8, 16, 33, 63, 64}

// TestTapeDifferentialFuzz: for random terms (raw and simplified) and
// random assignments, the bit-parallel tape must agree with smt.Eval on
// every one of the 64 lanes.
func TestTapeDifferentialFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		sctx := smt.DefaultContext()
		w := tapeWidths[r.Intn(len(tapeWidths))]
		var term *smt.Term
		if i%2 == 0 {
			term = randTapeTerm(r, sctx, 3, w)
		} else {
			term = randBoolTerm(r, sctx, w)
		}
		if i%3 == 0 {
			term = smt.Simplify(term)
		}
		if term.Op == smt.OpConst {
			continue
		}
		tp := smt.CompileTape(term)
		e := tp.Exec()
		assignments := make([]smt.Assignment, 64)
		for l := 0; l < 64; l++ {
			assignments[l] = randAssignment(r, term)
			e.SetLane(l, assignments[l])
		}
		e.Run()
		for l := 0; l < 64; l++ {
			want := smt.Eval(term, assignments[l])
			if got := e.RootLane(0, l); got != want {
				t.Fatalf("iter %d lane %d: tape=%d eval=%d for %s under %v",
					i, l, got, want, term, assignments[l])
			}
		}
		tp.Release(e)
	}
}

// fuzzWords is fuzzBytes with whole words: Uint64 takes the next eight
// bytes, little-endian, so constants and lane values reach every bit of
// a 64-bit width.
type fuzzWords struct{ fuzzBytes }

func (b *fuzzWords) Uint64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= b.fuzzBytes.Uint64() << (8 * i)
	}
	return v
}

// FuzzTape is TestTapeDifferentialFuzz over fuzz input: the bytes pick a
// width from tapeWidths, then decode to a bitvector or boolean term,
// perhaps simplified, and to an assignment per lane, its variables in
// name order. Every lane of the compiled tape must equal smt.Eval, and
// an assignment Falsify returns for a boolean term must evaluate to 0.
// Each input builds in a context of its own. The seeds under
// testdata/fuzz/FuzzTape are the choices rand.NewSource(11), the
// differential test's source, makes through this decoding: per width,
// the first bitvector term and the first boolean term that are not
// constants.
func FuzzTape(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzWords{fuzzBytes(data)}
		sctx := smt.NewContext()
		w := tapeWidths[src.Intn(len(tapeWidths))]
		var term *smt.Term
		if src.Intn(2) == 0 {
			term = randTapeTerm(src, sctx, 3, w)
		} else {
			term = randBoolTerm(src, sctx, w)
		}
		if src.Intn(3) == 0 {
			term = smt.Simplify(term)
		}
		if term.Op == smt.OpConst {
			return
		}
		widths := map[string]int{}
		term.Vars(widths)
		names := slices.Sorted(maps.Keys(widths))
		tp := smt.CompileTape(term)
		e := tp.Exec()
		defer tp.Release(e)
		lanes := make([]smt.Assignment, 64)
		for l := range lanes {
			lanes[l] = smt.Assignment{}
			for _, n := range names {
				lanes[l][n] = src.Uint64()
			}
			e.SetLane(l, lanes[l])
		}
		e.Run()
		for l, a := range lanes {
			if got, want := e.RootLane(0, l), smt.Eval(term, a); got != want {
				t.Fatalf("lane %d: tape=%d eval=%d for %s under %v", l, got, want, term, a)
			}
		}
		if term.IsBool() {
			seed := src.Uint64()
			if a, _, ok := tp.Falsify(seed, 1+src.Intn(4)); ok && smt.Eval(term, a) != 0 {
				t.Fatalf("Falsify(%d) returned %v, under which %s evaluates to %d", seed, a, term, smt.Eval(term, a))
			}
		}
	})
}

// TestWidthEdgeSemantics pins the shared width discipline of Eval and the
// tape at the edges (1, 63, 64 bits): masking at the word boundary,
// shift-amount overflow, arithmetic wraparound and boolean-variable
// normalization must agree bit-for-bit between the two evaluators and
// match the expected values.
func TestWidthEdgeSemantics(t *testing.T) {
	max63 := uint64(1)<<63 - 1
	max64 := ^uint64(0)
	cases := []struct {
		name string
		term *smt.Term
		a    smt.Assignment
		want uint64
	}{
		// 1-bit: wraparound and comparison at the smallest width.
		{"add_w1_wrap", smt.Add(smt.Var("x", 1), smt.Var("y", 1)), smt.Assignment{"x": 1, "y": 1}, 0},
		{"sub_w1_wrap", smt.Sub(smt.Var("x", 1), smt.Var("y", 1)), smt.Assignment{"x": 0, "y": 1}, 1},
		{"mul_w1", smt.Mul(smt.Var("x", 1), smt.Var("y", 1)), smt.Assignment{"x": 1, "y": 1}, 1},
		{"neg_w1", smt.BVNeg(smt.Var("x", 1)), smt.Assignment{"x": 1}, 1},
		{"ult_w1", smt.Ult(smt.Var("x", 1), smt.Var("y", 1)), smt.Assignment{"x": 0, "y": 1}, 1},
		{"shl_w1_by1", smt.Shl(smt.Var("x", 1), smt.Var("y", 1)), smt.Assignment{"x": 1, "y": 1}, 0},
		// 63-bit: the widest masked width (mask is a real AND).
		{"var_w63_masks", smt.Var("x", 63), smt.Assignment{"x": max64}, max63},
		{"add_w63_wrap", smt.Add(smt.Var("x", 63), smt.Var("y", 63)), smt.Assignment{"x": max63, "y": 1}, 0},
		{"mul_w63_wrap", smt.Mul(smt.Var("x", 63), smt.Var("y", 63)), smt.Assignment{"x": max63, "y": 2}, max63 - 1},
		{"neg_w63", smt.BVNeg(smt.Var("x", 63)), smt.Assignment{"x": 1}, max63},
		{"not_w63", smt.BVNot(smt.Var("x", 63)), smt.Assignment{"x": 1}, max63 - 1},
		{"shl_w63_am62", smt.Shl(smt.Var("x", 63), smt.Var("y", 63)), smt.Assignment{"x": 3, "y": 62}, uint64(1) << 62},
		{"shl_w63_am63_zero", smt.Shl(smt.Var("x", 63), smt.Var("y", 63)), smt.Assignment{"x": 1, "y": 63}, 0},
		{"lshr_w63_am62", smt.Lshr(smt.Var("x", 63), smt.Var("y", 63)), smt.Assignment{"x": max63, "y": 62}, 1},
		{"lshr_w63_am63_zero", smt.Lshr(smt.Var("x", 63), smt.Var("y", 63)), smt.Assignment{"x": max63, "y": 63}, 0},
		// 64-bit: mask(v, 64) is the identity; the machine word is the mask.
		{"add_w64_wrap", smt.Add(smt.Var("x", 64), smt.Var("y", 64)), smt.Assignment{"x": max64, "y": 1}, 0},
		{"sub_w64_wrap", smt.Sub(smt.Var("x", 64), smt.Var("y", 64)), smt.Assignment{"x": 0, "y": 1}, max64},
		{"mul_w64_wrap", smt.Mul(smt.Var("x", 64), smt.Var("y", 64)), smt.Assignment{"x": max64, "y": max64}, 1},
		{"neg_w64", smt.BVNeg(smt.Var("x", 64)), smt.Assignment{"x": 1}, max64},
		{"shl_w64_am63", smt.Shl(smt.Var("x", 64), smt.Var("y", 64)), smt.Assignment{"x": 3, "y": 63}, uint64(1) << 63},
		{"shl_w64_am64_zero", smt.Shl(smt.Var("x", 64), smt.Var("y", 64)), smt.Assignment{"x": 1, "y": 64}, 0},
		{"lshr_w64_am63", smt.Lshr(smt.Var("x", 64), smt.Var("y", 64)), smt.Assignment{"x": max64, "y": 63}, 1},
		{"lshr_w64_am64_zero", smt.Lshr(smt.Var("x", 64), smt.Var("y", 64)), smt.Assignment{"x": max64, "y": 64}, 0},
		{"ult_w64_msb", smt.Ult(smt.Var("x", 64), smt.Var("y", 64)), smt.Assignment{"x": max63, "y": uint64(1) << 63}, 1},
		// Concat/extract across the boundary.
		{"concat_1_63", smt.Concat(smt.Var("x", 1), smt.Var("y", 63)), smt.Assignment{"x": 1, "y": max63}, max64},
		{"extract_hi_w64", smt.Extract(smt.Var("x", 64), 63, 63), smt.Assignment{"x": uint64(1) << 63}, 1},
		{"zext_63_to_64", smt.ZExt(smt.Var("x", 63), 64), smt.Assignment{"x": max63}, max63},
		// Boolean operands: variables normalize to their low bit, so Not
		// can never underflow (the 1 - eval(...) bug-risk this pins down).
		{"boolvar_normalizes", smt.BoolVar("p"), smt.Assignment{"p": 5}, 1},
		{"not_nonbit_operand", smt.Not(smt.BoolVar("p")), smt.Assignment{"p": 5}, 0},
		{"not_even_nonbit", smt.Not(smt.BoolVar("p")), smt.Assignment{"p": 6}, 1},
		{"and_nonbit", smt.And(smt.BoolVar("p"), smt.BoolVar("q")), smt.Assignment{"p": 5, "q": 7}, 1},
		{"or_nonbit", smt.Or(smt.BoolVar("p"), smt.BoolVar("q")), smt.Assignment{"p": 4, "q": 2}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := smt.Eval(tc.term, tc.a); got != tc.want {
				t.Errorf("Eval(%s) = %d, want %d", tc.term, got, tc.want)
			}
			if got := tapeEval(tc.term, tc.a); got != tc.want {
				t.Errorf("tape(%s) = %d, want %d", tc.term, got, tc.want)
			}
			var ev smt.Evaluator
			if got := ev.Eval(tc.term, tc.a); got != tc.want {
				t.Errorf("Evaluator(%s) = %d, want %d", tc.term, got, tc.want)
			}
		})
	}
}

// TestEvaluatorMatchesEval: the reusable evaluator is Eval with a
// recycled memo — identical results across interleaved terms.
func TestEvaluatorMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	ev := smt.NewEvaluator()
	for i := 0; i < 200; i++ {
		term := randTapeTerm(r, smt.DefaultContext(), 3, []int{1, 8, 63, 64}[r.Intn(4)])
		a := randAssignment(r, term)
		if got, want := ev.Eval(term, a), smt.Eval(term, a); got != want {
			t.Fatalf("iter %d: Evaluator=%d Eval=%d for %s", i, got, want, term)
		}
	}
}

// TestTapeFalsifyDeterminism: the falsifying assignment must be a pure
// function of (seed, formula structure) — the same formula built in two
// fresh contexts (different interner IDs, different construction order)
// yields byte-identical witnesses, and repeated calls agree.
func TestTapeFalsifyDeterminism(t *testing.T) {
	mk := func(sctx *smt.Context, flip bool) *smt.Term {
		x := sctx.Var("x", 16)
		y := sctx.Var("y", 16)
		var a, b *smt.Term
		if flip {
			// Different construction order, same structure after interning.
			b = smt.Add(y, x)
			a = smt.Add(x, y)
			_ = b
		} else {
			a = smt.Add(x, y)
		}
		// "x + y == x | y" — false whenever the addition carries.
		return smt.Eq(a, smt.BVOr(x, y))
	}
	c1 := smt.NewContext()
	c2 := smt.NewContext()
	tp1 := smt.CompileTape(mk(c1, false))
	tp2 := smt.CompileTape(mk(c2, true))
	if tp1.Fingerprint() != tp2.Fingerprint() {
		t.Fatalf("fingerprints differ across contexts: %x vs %x", tp1.Fingerprint(), tp2.Fingerprint())
	}
	a1, n1, ok1 := tp1.Falsify(42, 4)
	a2, n2, ok2 := tp2.Falsify(42, 4)
	if !ok1 || !ok2 {
		t.Fatalf("falsification failed: ok1=%v ok2=%v", ok1, ok2)
	}
	if n1 != n2 {
		t.Errorf("packet counts differ: %d vs %d", n1, n2)
	}
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Errorf("witnesses differ: %v vs %v", a1, a2)
	}
	// Repetition: same inputs, same witness.
	a3, _, _ := tp1.Falsify(42, 4)
	if fmt.Sprint(a1) != fmt.Sprint(a3) {
		t.Errorf("witness not reproducible: %v vs %v", a1, a3)
	}
	// The witness must actually falsify the formula under Eval.
	if smt.Eval(mk(c1, false), a1) != 0 {
		t.Errorf("witness %v does not falsify the formula", a1)
	}
}

// TestTapeFalsifyZeroLane: round 0 lane 0 is the all-zeros packet, so a
// formula falsified by zeros reports the zero witness with exactly one
// batch of work.
func TestTapeFalsifyZeroLane(t *testing.T) {
	x := smt.Var("zl_x", 8)
	tp := smt.CompileTape(smt.Ult(smt.Const(0, 8), x)) // false at x=0
	a, packets, ok := tp.Falsify(7, 4)
	if !ok || packets != 64 {
		t.Fatalf("expected first-batch falsification, got ok=%v packets=%d", ok, packets)
	}
	if a["zl_x"] != 0 {
		t.Errorf("expected the all-zeros lane as witness, got %v", a)
	}
}

// TestTapeUnfalsifiable: a tautology survives every round and reports the
// full packet budget.
func TestTapeUnfalsifiable(t *testing.T) {
	x := smt.Var("uf_x", 8)
	tp := smt.CompileTape(smt.Ule(smt.Const(0, 8), x)) // always true
	if _, packets, ok := tp.Falsify(7, 3); ok || packets != 3*64 {
		t.Fatalf("tautology falsified or wrong budget: ok=%v packets=%d", ok, packets)
	}
}

// TestTapeMultiRoot: several roots share subterms and read out
// independently (the testgen trace-steering shape).
func TestTapeMultiRoot(t *testing.T) {
	x := smt.Var("mr_x", 8)
	c1 := smt.Ult(x, smt.Const(16, 8))
	c2 := smt.Eq(smt.BVAnd(x, smt.Const(1, 8)), smt.Const(1, 8))
	tp := smt.CompileTape(c1, c2)
	e := tp.Exec()
	defer tp.Release(e)
	for l := 0; l < 64; l++ {
		e.SetLane(l, smt.Assignment{"mr_x": uint64(l * 4)})
	}
	e.Run()
	b1, b2 := e.RootBits(0), e.RootBits(1)
	for l := 0; l < 64; l++ {
		v := uint64(l * 4 % 256)
		want1 := uint64(0)
		if v < 16 {
			want1 = 1
		}
		if got := b1 >> uint(l) & 1; got != want1 {
			t.Fatalf("lane %d root 0: got %d want %d", l, got, want1)
		}
		if got := b2 >> uint(l) & 1; got != v&1 {
			t.Fatalf("lane %d root 1: got %d want %d", l, got, v&1)
		}
	}
}

// TestTapeConcurrentExec: executors from the pool race on the shared
// compiled tape (run under -race in CI).
func TestTapeConcurrentExec(t *testing.T) {
	x := smt.Var("cc_x", 32)
	y := smt.Var("cc_y", 32)
	term := smt.Eq(smt.Add(x, y), smt.Add(y, x))
	tp := smt.CompileTape(term)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- true }()
			for i := 0; i < 50; i++ {
				if _, _, ok := tp.Falsify(uint64(g*100+i), 1); ok {
					t.Errorf("commutativity falsified")
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func BenchmarkEvalFreshMemo(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	term := randTapeTerm(r, smt.DefaultContext(), 6, 32)
	a := randAssignment(r, term)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smt.Eval(term, a)
	}
}

func BenchmarkEvalReusedMemo(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	term := randTapeTerm(r, smt.DefaultContext(), 6, 32)
	a := randAssignment(r, term)
	ev := smt.NewEvaluator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Eval(term, a)
	}
}

func BenchmarkTapeBatch(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	term := randBoolTerm(r, smt.DefaultContext(), 32)
	tp := smt.CompileTape(term)
	e := tp.Exec()
	defer tp.Release(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.FillRound(uint64(i), 0)
		e.Run()
	}
	b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds(), "packets/sec")
}
