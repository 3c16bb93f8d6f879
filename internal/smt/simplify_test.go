package smt_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gauntlet/internal/smt"
)

// termGen builds random terms over a, b, c (8 bits), n (4 bits) and p
// (a bool), with their leaves in ctx and every choice drawn from r: a
// *rand.Rand in the tests, the input bytes in FuzzSimplify.
type termGen struct {
	ctx *smt.Context
	r   interface {
		Intn(n int) int
		Uint64() uint64
	}
}

// simpRandBV builds a random 8-bit term in the default context.
func simpRandBV(r *rand.Rand, depth int) *smt.Term { return termGen{smt.DefaultContext(), r}.bv(depth) }

// simpRandBool builds a random boolean term in the default context.
func simpRandBool(r *rand.Rand, depth int) *smt.Term {
	return termGen{smt.DefaultContext(), r}.bool(depth)
}

// bv builds a random 8-bit term exercising every operator the
// simplifier has rules for (wider than the interner test's pool: shifts,
// zext/concat/extract plumbing, ite chains).
func (g termGen) bv(depth int) *smt.Term {
	r := g.r
	if depth == 0 {
		switch r.Intn(5) {
		case 0:
			return g.ctx.Var("a", 8)
		case 1:
			return g.ctx.Var("b", 8)
		case 2:
			return g.ctx.Var("c", 8)
		case 3:
			return g.ctx.Const(r.Uint64()&0xFF, 8)
		default:
			return smt.ZExt(g.ctx.Var("n", 4), 8)
		}
	}
	x := g.bv(depth - 1)
	y := g.bv(depth - 1)
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
		return smt.Shl(x, g.ctx.Const(r.Uint64()%12, 8))
	case 11:
		return smt.Concat(smt.Extract(x, 5, 0), smt.Extract(y, 7, 6))
	case 12:
		return smt.Extract(smt.Concat(x, y), 11, 4)
	default:
		return smt.Ite(g.bool(1), x, y)
	}
}

// bool builds a random boolean term.
func (g termGen) bool(depth int) *smt.Term {
	r := g.r
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return smt.Eq(g.bv(1), g.bv(1))
		case 1:
			return smt.Ult(g.bv(1), g.bv(1))
		case 2:
			return smt.Ule(g.bv(1), g.bv(1))
		default:
			return g.ctx.BoolVar("p")
		}
	}
	switch r.Intn(5) {
	case 0:
		return smt.And(g.bool(depth-1), g.bool(depth-1))
	case 1:
		return smt.Or(g.bool(depth-1), g.bool(depth-1))
	case 2:
		return smt.Not(g.bool(depth - 1))
	case 3:
		return smt.Ite(g.bool(depth-1), g.bool(depth-1), g.bool(depth-1))
	default:
		return smt.Eq(g.bool(depth-1), g.bool(depth-1))
	}
}

func simpRandAssignment(r interface{ Uint64() uint64 }) smt.Assignment {
	return smt.Assignment{
		"a": r.Uint64() & 0xFF,
		"b": r.Uint64() & 0xFF,
		"c": r.Uint64() & 0xFF,
		"n": r.Uint64() & 0xF,
		"p": r.Uint64() & 1,
	}
}

// simpCorners are the all-zero and all-ones assignments.
var simpCorners = []smt.Assignment{
	{},
	{"a": 0xFF, "b": 0xFF, "c": 0xFF, "n": 0xF, "p": 1},
}

// TestSimplifyDifferentialEval is the soundness fuzz: Simplify must be
// model-preserving, so the original and simplified term evaluate
// identically under every assignment (sampled randomly, plus the all-zero
// and all-ones corners).
func TestSimplifyDifferentialEval(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	for i := 0; i < 500; i++ {
		var term *smt.Term
		if i%2 == 0 {
			term = simpRandBool(r, 4)
		} else {
			term = simpRandBV(r, 4)
		}
		s := smt.Simplify(term)
		if s.W != term.W {
			t.Fatalf("iteration %d: Simplify changed sort: %s (w=%d) → %s (w=%d)",
				i, term, term.W, s, s.W)
		}
		check := func(a smt.Assignment) {
			if got, want := smt.Eval(s, a), smt.Eval(term, a); got != want {
				t.Fatalf("iteration %d: Simplify changed semantics under %v:\n  raw  %s = %d\n  simp %s = %d",
					i, a, term, want, s, got)
			}
		}
		for _, a := range simpCorners {
			check(a)
		}
		for j := 0; j < 32; j++ {
			check(simpRandAssignment(r))
		}
	}
}

// fuzzBytes feeds a termGen from fuzz input: each choice takes one
// byte, and an exhausted input answers 0, which ends every branch in a
// leaf.
type fuzzBytes []byte

func (b *fuzzBytes) Intn(n int) int { return int(b.Uint64() % uint64(n)) }

func (b *fuzzBytes) Uint64() uint64 {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return uint64(v)
}

// FuzzSimplify is TestSimplifyDifferentialEval over fuzz input: the bytes
// decode to an assignment and then a term over the same variables, and
// the simplified term must keep the sort and evaluate like the original
// under the corner assignments and the decoded one. Each input builds in
// a context of its own, so a long run does not grow the default interner.
func FuzzSimplify(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzBytes(data)
		g := termGen{smt.NewContext(), &src}
		decoded := simpRandAssignment(&src)
		var term *smt.Term
		if src.Intn(2) == 0 {
			term = g.bool(4)
		} else {
			term = g.bv(4)
		}
		s := smt.Simplify(term)
		if s.W != term.W {
			t.Fatalf("Simplify changed sort: %s (w=%d) → %s (w=%d)", term, term.W, s, s.W)
		}
		for _, a := range append(slices.Clone(simpCorners), decoded) {
			if got, want := smt.Eval(s, a), smt.Eval(term, a); got != want {
				t.Fatalf("Simplify changed semantics under %v:\n  raw  %s = %d\n  simp %s = %d", a, term, want, s, got)
			}
		}
	})
}

// TestSimplifyIdempotent: a simplified term is a fixpoint — simplifying
// it again must return the identical object (the memo records results as
// their own fixpoints, so a violation would also poison the cache).
func TestSimplifyIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		var term *smt.Term
		if i%2 == 0 {
			term = simpRandBool(r, 4)
		} else {
			term = simpRandBV(r, 4)
		}
		s := smt.Simplify(term)
		if again := smt.Simplify(s); again != s {
			t.Fatalf("iteration %d: simplification not idempotent:\n  raw   %s\n  once  %s\n  twice %s",
				i, term, s, again)
		}
	}
}

// TestSimplifyCanonicalizesCommuted: syntactic variants that differ only
// in operand order or nesting must normalize to the same (pointer-equal)
// canonical term — that is what lets the validator share verdicts across
// distinct raw miters.
func TestSimplifyCanonicalizesCommuted(t *testing.T) {
	x := smt.Var("x", 8)
	y := smt.Var("y", 8)
	p := smt.BoolVar("p")
	q := smt.BoolVar("q")
	pairs := [][2]*smt.Term{
		{smt.Add(x, y), smt.Add(y, x)},
		{smt.BVXor(x, y), smt.BVXor(y, x)},
		{smt.Eq(x, y), smt.Eq(y, x)},
		{smt.And(p, q), smt.And(q, p)},
		{smt.Or(p, smt.Or(q, p)), smt.Or(q, p)},
		{smt.And(p, smt.And(q, smt.And(p, q))), smt.And(q, p)},
	}
	for i, pair := range pairs {
		a, b := smt.Simplify(pair[0]), smt.Simplify(pair[1])
		if a != b {
			t.Errorf("pair %d: variants not canonicalized: %s vs %s → %s vs %s",
				i, pair[0], pair[1], a, b)
		}
	}
}

// TestSimplifyRules spot-checks the individual rewrite rules from the
// issue list.
func TestSimplifyRules(t *testing.T) {
	x := smt.Var("x", 8)
	y := smt.Var("y", 8)
	p := smt.BoolVar("p")
	q := smt.BoolVar("q")
	cases := []struct {
		name string
		in   *smt.Term
		want *smt.Term
	}{
		{"complement-and", smt.And(p, q, smt.Not(p)), smt.False},
		{"complement-or", smt.Or(q, p, smt.Not(q)), smt.True},
		{"comparison-complement", smt.And(smt.Ult(x, y), smt.Ule(y, x)), smt.False},
		{"demorgan-pushes-not", smt.Not(smt.And(p, q)), smt.Simplify(smt.Or(smt.Not(p), smt.Not(q)))},
		{"ite-shared-cond", smt.Ite(p, smt.Ite(p, x, y), y), smt.Simplify(smt.Ite(p, x, y))},
		{"ite-shared-branch", smt.Ite(p, x, smt.Ite(q, x, y)), smt.Simplify(smt.Ite(smt.Or(p, q), x, y))},
		{"xx-cancel", smt.Sub(x, x), smt.Const(0, 8)},
		{"addsub-cancel", smt.Sub(smt.Add(x, y), y), x},
		{"subadd-cancel", smt.Add(smt.Sub(x, y), y), x},
		{"and-idempotent", smt.BVAnd(x, x), x},
		{"and-complement", smt.BVAnd(x, smt.BVNot(x)), smt.Const(0, 8)},
		{"or-complement", smt.BVOr(x, smt.BVNot(x)), smt.Const(0xFF, 8)},
		{"shl-const-is-wiring", smt.Shl(x, smt.Const(3, 8)),
			smt.Concat(smt.Extract(x, 4, 0), smt.Const(0, 3))},
		{"lshr-const-is-wiring", smt.Lshr(x, smt.Const(3, 8)),
			smt.ZExt(smt.Extract(x, 7, 3), 8)},
		{"extract-of-concat", smt.Extract(smt.Concat(x, y), 7, 0), y},
		{"extract-of-zext-high", smt.Extract(smt.ZExt(x, 16), 15, 8), smt.Const(0, 8)},
		{"extract-of-zext-low", smt.Extract(smt.ZExt(x, 16), 7, 0), x},
		{"concat-refusion", smt.Concat(smt.Extract(x, 7, 4), smt.Extract(x, 3, 0)), x},
		{"eq-concat-decomposes", smt.Eq(smt.Concat(x, y), smt.Const(0, 16)),
			smt.Simplify(smt.And(smt.Eq(x, smt.Const(0, 8)), smt.Eq(y, smt.Const(0, 8))))},
		{"eq-add-cancel", smt.Eq(smt.Add(x, y), smt.Add(x, smt.Var("z", 8))),
			smt.Simplify(smt.Eq(y, smt.Var("z", 8)))},
		{"ult-zero", smt.Ult(x, smt.Const(0, 8)), smt.False},
		{"ult-one-is-eq-zero", smt.Ult(x, smt.Const(1, 8)), smt.Eq(x, smt.Const(0, 8))},
		{"ule-max", smt.Ule(x, smt.Const(0xFF, 8)), smt.True},
		{"ule-zero-is-eq-zero", smt.Ule(x, smt.Const(0, 8)), smt.Eq(x, smt.Const(0, 8))},
		{"ult-zext-range", smt.Ult(smt.ZExt(smt.Var("n", 4), 8), smt.Const(16, 8)), smt.True},
		{"eq-zext-out-of-range", smt.Eq(smt.ZExt(smt.Var("n", 4), 8), smt.Const(200, 8)), smt.False},
	}
	for _, c := range cases {
		got := smt.Simplify(c.in)
		want := smt.Simplify(c.want) // canonical object of the expectation
		if got != want {
			t.Errorf("%s: Simplify(%s) = %s, want %s", c.name, c.in, got, want)
		}
	}
}

// TestSimplifyBoolConstEqStaysCanonical is the memo-poisoning
// regression: Eq with one boolean side collapsing to a constant must
// negate through the simplifier, not the raw Not constructor — otherwise
// a non-canonical Not(...) gets registered as its own fixpoint and the
// canonical form of that negation becomes query-order dependent.
func TestSimplifyBoolConstEqStaysCanonical(t *testing.T) {
	x := smt.Var("cx", 8)
	y := smt.Var("cy", 8)
	p := smt.BoolVar("cp")
	falsey := smt.And(p, smt.Not(p)) // simplifies to false
	got := smt.Simplify(smt.Eq(falsey, smt.Ult(x, y)))
	want := smt.Simplify(smt.Not(smt.Ult(x, y)))
	if got != want {
		t.Fatalf("Eq(false, a<b) not canonical: got %s, want %s", got, want)
	}
	if canon := smt.Ule(y, x); got != canon {
		t.Fatalf("negated comparison should flip, got %s want %s", got, canon)
	}
	// And the memo must not have been poisoned for the direct query.
	if again := smt.Simplify(smt.Not(smt.Ult(x, y))); again != smt.Ule(y, x) {
		t.Fatalf("direct Not(a<b) no longer canonical after Eq query: %s", again)
	}
}

// TestSimplifyConcurrent hammers the sharded simplification cache from
// many goroutines simplifying the same term population; every goroutine
// must observe the same canonical results. Mirrors TestInternConcurrent;
// run with -race in CI.
func TestSimplifyConcurrent(t *testing.T) {
	const workers = 8
	results := make([][]*smt.Term, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(314))
			var out []*smt.Term
			for i := 0; i < 200; i++ {
				out = append(out, smt.Simplify(simpRandBool(r, 3)))
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range results[0] {
			if results[0][i] != results[w][i] {
				t.Fatalf("worker %d result %d diverged: %s vs %s",
					w, i, results[w][i], results[0][i])
			}
		}
	}
}

// TestSimplifyStats: the cache snapshot must show activity after use.
func TestSimplifyStats(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		term := simpRandBool(r, 3)
		smt.Simplify(term)
		smt.Simplify(term) // guaranteed hit
	}
	info := smt.SimplifyStats()
	if info.Entries == 0 || info.Misses == 0 {
		t.Fatalf("cache shows no work: %+v", info)
	}
	if info.Hits == 0 {
		t.Fatalf("re-simplifying memoized terms produced no hits: %+v", info)
	}
}
