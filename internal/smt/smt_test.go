package smt_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gauntlet/internal/smt"
)

func TestConstructorsFold(t *testing.T) {
	x := smt.Var("x", 8)
	cases := []struct {
		got  *smt.Term
		want string
	}{
		{smt.Add(smt.Const(3, 8), smt.Const(250, 8)), "#b253[8]"},
		{smt.Add(x, smt.Const(0, 8)), "x"},
		{smt.Mul(x, smt.Const(1, 8)), "x"},
		{smt.Mul(x, smt.Const(0, 8)), "#b0[8]"},
		{smt.BVAnd(x, smt.Const(0xFF, 8)), "x"},
		{smt.BVAnd(x, smt.Const(0, 8)), "#b0[8]"},
		{smt.BVXor(x, x), "#b0[8]"},
		{smt.BVNot(smt.BVNot(x)), "x"},
		{smt.Shl(x, smt.Const(0, 8)), "x"},
		{smt.Shl(x, smt.Const(9, 8)), "#b0[8]"},
		{smt.Extract(x, 7, 0), "x"},
		{smt.Extract(smt.Const(0xAB, 8), 7, 4), "#b10[4]"},
		{smt.Concat(smt.Const(0xA, 4), smt.Const(0xB, 4)), "#b171[8]"},
		{smt.Not(smt.Not(smt.BoolVar("p"))), "p"},
		{smt.And(smt.True, smt.BoolVar("p")), "p"},
		{smt.And(smt.False, smt.BoolVar("p")), "false"},
		{smt.Or(smt.True, smt.BoolVar("p")), "true"},
		{smt.Ite(smt.True, x, smt.Const(0, 8)), "x"},
		{smt.Eq(x, x), "true"},
		{smt.ZExt(smt.Const(5, 4), 8), "#b5[8]"},
	}
	for _, tc := range cases {
		if got := tc.got.String(); got != tc.want {
			t.Errorf("folded to %s, want %s", got, tc.want)
		}
	}
}

func TestNestedExtractFolds(t *testing.T) {
	x := smt.Var("x", 16)
	e := smt.Extract(smt.Extract(x, 11, 4), 5, 2) // bits 9..6 of x
	if e.Op != smt.OpBVExtract || e.Hi != 9 || e.Lo != 6 || e.Args[0] != x {
		t.Fatalf("nested extract did not fold: %s", e)
	}
}

func TestSubst(t *testing.T) {
	x := smt.Var("x", 8)
	y := smt.Var("y", 8)
	e := smt.Add(x, smt.Mul(y, smt.Const(2, 8)))
	s := smt.Subst(e, map[string]*smt.Term{"x": smt.Const(3, 8), "y": smt.Const(4, 8)})
	if !s.IsConst() || s.Val != 11 {
		t.Fatalf("subst+fold = %s, want #b11[8]", s)
	}
	// Partial substitution keeps the other variable.
	s2 := smt.Subst(e, map[string]*smt.Term{"y": smt.Const(0, 8)})
	if s2.String() != "x" {
		t.Fatalf("subst y=0 = %s, want x", s2)
	}
}

func TestSubstSortMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sort-mismatched substitution did not panic")
		}
	}()
	smt.Subst(smt.Var("x", 8), map[string]*smt.Term{"x": smt.Const(1, 4)})
}

// TestSubstPreservesSemantics: substituting v := r and evaluating equals
// evaluating with the assignment extended by r's value.
func TestSubstPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	x := smt.Var("x", 8)
	y := smt.Var("y", 8)
	z := smt.Var("z", 8)
	e := smt.Ite(smt.Ult(x, y), smt.Add(x, z), smt.BVXor(y, z))
	f := func(xv, yv, zv uint64) bool {
		repl := map[string]*smt.Term{"x": smt.Add(y, z)} // x := y + z
		substituted := smt.Subst(e, repl)
		a := smt.Assignment{"y": yv & 0xFF, "z": zv & 0xFF}
		aWithX := smt.Assignment{"x": (yv + zv) & 0xFF, "y": yv & 0xFF, "z": zv & 0xFF}
		return smt.Eval(substituted, a) == smt.Eval(e, aWithX)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestVarsCollection(t *testing.T) {
	e := smt.And(
		smt.Eq(smt.Var("a", 8), smt.Var("b", 8)),
		smt.BoolVar("p"),
	)
	vars := map[string]int{}
	e.Vars(vars)
	if len(vars) != 3 || vars["a"] != 8 || vars["p"] != 0 {
		t.Fatalf("Vars = %v", vars)
	}
}

func TestSizeAndString(t *testing.T) {
	e := smt.Add(smt.Var("a", 8), smt.Const(1, 8))
	if e.Size() != 3 {
		t.Errorf("Size = %d, want 3", e.Size())
	}
	if e.String() != "(bvadd a #b1[8])" {
		t.Errorf("String = %q", e.String())
	}
}

func TestIteRedundantGuardFold(t *testing.T) {
	c := smt.Ult(smt.Var("a", 8), smt.Var("b", 8))
	x := smt.Var("x", 8)
	y := smt.Var("y", 8)
	inner := smt.Ite(c, x, y)
	outer := smt.Ite(c, inner, y)
	// Outer then-branch guarded by the same condition object collapses.
	if outer.String() != smt.Ite(c, x, y).String() {
		t.Fatalf("redundant guard not folded: %s", outer)
	}
}

func TestSatAddSemantics(t *testing.T) {
	f := func(a, b uint8) bool {
		x := smt.Const(uint64(a), 8)
		y := smt.Const(uint64(b), 8)
		got := smt.Eval(smt.SatAdd(x, y), nil)
		want := uint64(a) + uint64(b)
		if want > 255 {
			want = 255
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInternerStats: the observability snapshot must count distinct
// terms and hits, and account for real memory.
func TestInternerStats(t *testing.T) {
	// Force some distinct terms into the default interner.
	x := smt.Var("stats_probe_x", 16)
	probe := func() {
		for i := uint64(0); i < 32; i++ {
			_ = smt.Add(x, smt.Const(i, 16))
		}
	}
	probe()
	info := smt.InternerStats()
	// Building the same terms again adds none and answers each from the
	// table.
	probe()
	if again := smt.InternerStats(); again.Entries != info.Entries || again.Hits < info.Hits+32 {
		t.Errorf("rebuilding 32 terms: entries %d -> %d, hits %d -> %d; want no new entry and at least 32 hits",
			info.Entries, again.Entries, info.Hits, again.Hits)
	}
	if info.Entries < 32 {
		t.Errorf("expected at least the 32 probe terms, got %d", info.Entries)
	}
	// Every term costs at least its struct size.
	if info.BytesEstimate < info.Entries*32 {
		t.Errorf("bytes estimate %d implausibly small for %d entries", info.BytesEstimate, info.Entries)
	}
	if info.Shards <= 0 || info.OccupiedShards <= 0 || info.OccupiedShards > info.Shards {
		t.Errorf("shard accounting broken: %+v", info)
	}
	if info.MaxShardEntries == 0 || info.MaxShardEntries > info.Entries {
		t.Errorf("max shard entries broken: %+v", info)
	}
}
