package solver_test

import (
	"context"
	"maps"
	"testing"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/generator"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/smt"
	"gauntlet/internal/smt/solver"
	"gauntlet/internal/sym"
	"gauntlet/internal/validate"
)

// budgetedQuerySeed is the v1model generator seed whose validation ends in
// a query that exhausts the default conflict budget. It is slot 1000189
// of bench/'s tv-campaign, where that one query is the run's tail.
const budgetedQuerySeed = 1000189

// blockName returns the name of a parser or control, the blocks
// translation validation compares, and "" for any other declaration.
func blockName(d ast.Decl) string {
	switch d := d.(type) {
	case *ast.ControlDecl:
		return d.Name
	case *ast.ParserDecl:
		return d.Name
	}
	return ""
}

// cdclQueries compiles a generated program with the engine's reference
// pipeline and returns the equivalence queries of its validation that
// reach CDCL, in validation order. It walks the snapshots the way
// validate.Snapshots does and drops every query an earlier tier answers:
// a miter that simplifies to true, a repeat of an earlier miter (the
// verdict cache) and a miter the concrete tape falsifies. The cache keeps
// no Unknown verdict, so a repeat of a miter that ended Unknown would
// reach CDCL again; the seed benchmarked here has no repeats.
func cdclQueries(tb testing.TB, seed int64) []*smt.Term {
	passes, err := core.Pipeline(bugs.BMv2)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := compiler.New(passes...).Compile(generator.Generate(generator.DefaultConfig(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	forms := func(prog *ast.Program) map[string]*sym.Block {
		out := map[string]*sym.Block{}
		for _, d := range prog.Decls {
			var blk *sym.Block
			var err error
			switch d := d.(type) {
			case *ast.ControlDecl:
				blk, err = sym.ExecControl(prog, d)
			case *ast.ParserDecl:
				blk, err = sym.ExecParser(prog, d)
			default:
				continue
			}
			if err != nil {
				tb.Fatal(err)
			}
			out[blockName(d)] = blk
		}
		return out
	}
	var queries []*smt.Term
	seen := map[uint64]bool{}
	prev, prevHash := forms(res.Snapshots[0].Prog), res.Snapshots[0].Hash
	for _, snap := range res.Snapshots[1:] {
		if snap.Hash == prevHash {
			continue
		}
		cur := forms(snap.Prog)
		for _, d := range snap.Prog.Decls {
			name := blockName(d)
			a, ok := prev[name]
			if !ok {
				continue
			}
			eq := sym.Equivalent(a, cur[name])
			if eq.IsTrue() || seen[eq.ID()] {
				continue
			}
			seen[eq.ID()] = true
			if _, _, falsified := smt.CompileTape(eq).Falsify(0, validate.DefaultConcolicRounds); falsified {
				continue
			}
			queries = append(queries, eq)
		}
		prev, prevHash = cur, snap.Hash
	}
	return queries
}

// BenchmarkEquivalenceQueryBudgeted measures the one equivalence query of
// budgetedQuerySeed's validation that reaches CDCL, under the engine's
// default budget of 20000 conflicts. It is the CDCL core's critical path
// on tv-campaign: the query ends Unknown at the budget. Each op is the
// call solver.EquivalentContext makes, SolveContext on miter ≠ true,
// which also reports the conflict count. The bench fails on any verdict
// but Unknown and reports conflicts per op.
func BenchmarkEquivalenceQueryBudgeted(b *testing.B) {
	miter := budgetedMiter(b)
	conflicts := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := solver.SolveContext(context.Background(), 20000, miter)
		if res.Status != solver.Unknown {
			b.Fatalf("verdict %v, want unknown at the budget", res.Status)
		}
		conflicts += res.Conflicts
	}
	b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
}

// budgetedMiter returns the miter of budgetedQuerySeed's one query that
// reaches CDCL, in the form solver.EquivalentContext solves it.
func budgetedMiter(tb testing.TB) *smt.Term {
	queries := cdclQueries(tb, budgetedQuerySeed)
	if len(queries) != 1 {
		tb.Fatalf("seed %d: %d queries reach CDCL, want 1", budgetedQuerySeed, len(queries))
	}
	return smt.Ne(queries[0], smt.True)
}

// TestRecycledSessionBudgetedQuery solves the budgeted query on a new
// session and on one whose storage first searched a distributivity miter
// and was then reset the way Close resets it: both must end Unknown at
// the same conflict count.
func TestRecycledSessionBudgetedQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the budgeted query twice")
	}
	miter := budgetedMiter(t)
	solve := func(s *solver.Session) solver.Result {
		s.Assert(miter)
		return s.Solve()
	}
	solver.EmptyPool()
	fresh := solve(solver.NewSession(20000))
	used := solver.NewSession(3000)
	a, b, c := smt.Var("a", 6), smt.Var("b", 6), smt.Var("c", 6)
	used.Assert(smt.Ne(smt.Mul(smt.Add(a, b), c), smt.Add(smt.Mul(a, c), smt.Mul(b, c))))
	used.Solve()
	recycled := solve(solver.Recycled(used, 20000))
	if fresh.Status != solver.Unknown || recycled.Status != fresh.Status ||
		recycled.Conflicts != fresh.Conflicts || !maps.Equal(recycled.Model, fresh.Model) {
		t.Fatalf("recycled session: %v after %d conflicts, new session: %v after %d (want unknown)",
			recycled.Status, recycled.Conflicts, fresh.Status, fresh.Conflicts)
	}
}
