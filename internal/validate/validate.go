// Package validate implements Gauntlet's translation validation (§5): it
// converts the program emitted after every compiler pass into symbolic
// block formulas and checks consecutive snapshots for equivalence with the
// SMT solver. A satisfiable inequality pinpoints the erroneous pass and
// yields the input assignment (packet content, table entries) that
// triggers the miscompilation — exactly the report Figure 2 describes.
package validate

import (
	"context"
	"fmt"
	"time"

	"gauntlet/internal/compiler"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/smt"
	"gauntlet/internal/smt/solver"
	"gauntlet/internal/sym"
)

// Verdict reports the comparison of one block across one pass.
type Verdict struct {
	// PassA and PassB name the snapshots compared (PassB is the suspect).
	PassA, PassB string
	// Block is the programmable block name.
	Block string
	// Equivalent is true when the solver proved equivalence.
	Equivalent bool
	// Counterexample is the distinguishing assignment when inequivalent.
	Counterexample smt.Assignment
	// Status is the raw solver verdict (Unknown on conflict-budget
	// exhaustion).
	Status solver.Status
	// Err reports interpreter failures (treated as tool limitations, not
	// compiler bugs — the paper's false-alarm discipline, §5.2).
	Err error
}

// String renders the verdict for reports.
func (v Verdict) String() string {
	switch {
	case v.Err != nil:
		return fmt.Sprintf("%s→%s %s: interpreter error: %v", v.PassA, v.PassB, v.Block, v.Err)
	case v.Equivalent:
		return fmt.Sprintf("%s→%s %s: equivalent", v.PassA, v.PassB, v.Block)
	default:
		return fmt.Sprintf("%s→%s %s: NOT equivalent (counterexample %v)",
			v.PassA, v.PassB, v.Block, v.Counterexample)
	}
}

// Options configures validation.
type Options struct {
	// MaxConflicts bounds each solver call (0 = unbounded).
	MaxConflicts int
	// Cache memoizes block formulas, equivalence verdicts and compiled
	// miter tapes. Optional: nil gives each call a private cache
	// (intra-compilation reuse only). A campaign shares one cache across
	// hunts and worker goroutines.
	Cache *Cache
	// Concolic configures the bit-parallel concrete fast path that runs
	// under every equivalence query. The zero value enables it with the
	// default budget.
	Concolic Concolic
	// QueryObs, when non-nil, is invoked once per equivalence query with
	// the resolution tier that answered it (Tier* constants) and the
	// query's wall-clock latency. Observation-only: the hook must not
	// block, and installing it changes cost, never verdicts. It may be
	// called from many goroutines concurrently.
	QueryObs func(tier string, d time.Duration)
}

// Resolution tiers, cheapest first: the layer of the solver stack that
// answered an equivalence query. Reported via Options.QueryObs.
const (
	// TierSimplified: pointer-equal interned formulas, or a miter that
	// word-level simplification collapsed to constant true.
	TierSimplified = "simplified"
	// TierCacheHit: answered by the shared verdict cache.
	TierCacheHit = "cache-hit"
	// TierHintReplay: a caller-provided counterexample hint replayed
	// through the tape falsified the query (reduction fast path).
	TierHintReplay = "hint-replay"
	// TierConcolic: a deterministic concrete batch through the
	// bit-parallel tape falsified the query before any solver session.
	TierConcolic = "concolic-falsified"
	// TierCDCL: the full CDCL solver ran (including Unknown verdicts on
	// budget exhaustion).
	TierCDCL = "cdcl"
)

// DefaultConcolicRounds is the concrete budget per fresh equivalence
// query: rounds × 64 packets through the compiled tape before the solver
// is consulted. Four batches (256 packets) falsify the overwhelming
// majority of falsifiable miters — defect-injected pass pairs diverge on
// dense input regions — while costing microseconds on survived queries.
const DefaultConcolicRounds = 4

// Concolic configures the concrete falsification stage of equivalence
// checking. The zero value means "enabled, default budget, seed 0" —
// deterministic across runs and worker counts by construction, because
// batch inputs derive only from (Seed, miter structure), never from wall
// clock or a global RNG.
type Concolic struct {
	// Disable skips the tape entirely: every fresh query goes straight to
	// the solver (the PR 3 behavior). Used by the differential tests that
	// prove finding-set invariance, and available for bisection.
	Disable bool
	// Seed perturbs the deterministic input derivation. Campaigns keep it
	// fixed so every worker derives identical batches for a given miter.
	Seed uint64
	// Hints are known counterexample assignments to replay first, one
	// packet each — a reduction predicate holds the original program's
	// witness and most reduction candidates still fail on it. A hint hit
	// answers the query without batches and without the solver.
	Hints []smt.Assignment
}

func (o Options) cache() *Cache {
	if o.Cache != nil {
		return o.Cache
	}
	return NewCache()
}

// blockForms computes the symbolic form of every programmable block
// (parsers and controls) of a program, in declaration order, through the
// cache: blocks whose printed source (and constant environment) are
// unchanged since an earlier snapshot reuse the memoized formula instead
// of re-running symbolic execution.
func blockForms(c *Cache, prog *ast.Program) (map[string]*sym.Block, []string, error) {
	forms := map[string]*sym.Block{}
	var order []string
	consts := contextKey(prog)
	for _, d := range prog.Decls {
		var name string
		switch d := d.(type) {
		case *ast.ControlDecl:
			name = d.Name
		case *ast.ParserDecl:
			name = d.Name
		default:
			continue
		}
		b, err := c.blockForm(prog, consts, d)
		if err != nil {
			return nil, nil, fmt.Errorf("block %s: %w", name, err)
		}
		forms[name] = b
		order = append(order, name)
	}
	return forms, order, nil
}

// Snapshots validates every consecutive snapshot pair of a compilation.
// It returns one verdict per (pass transition, block) comparison; callers
// filter for failures. The first interpreter error aborts (it would
// poison later comparisons).
//
// Fast paths, in order of cheapness: identically-fingerprinted snapshots
// are equivalent without any symbolic work; per-block formula caching
// skips symbolic execution of unchanged blocks; pointer-equal (interned)
// formulas skip the solver; and the shared verdict cache answers repeated
// equivalence queries across snapshots and hunts.
func Snapshots(res *compiler.Result, opts Options) ([]Verdict, error) {
	return SnapshotsContext(context.Background(), res, opts)
}

// SnapshotsContext is Snapshots with cancellation: the context is checked
// between snapshots and between block comparisons (each individual solver
// query stays bounded by MaxConflicts), and ctx.Err() is returned with the
// verdicts gathered so far when the deadline fires mid-stream.
func SnapshotsContext(ctx context.Context, res *compiler.Result, opts Options) ([]Verdict, error) {
	var out []Verdict
	if len(res.Snapshots) == 0 {
		return nil, nil
	}
	cache := opts.cache()
	prevForms, _, err := blockForms(cache, res.Snapshots[0].Prog)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", res.Snapshots[0].Pass, err)
	}
	prevPass := res.Snapshots[0].Pass
	prevHash := res.Snapshots[0].Hash
	for _, snap := range res.Snapshots[1:] {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if snap.Hash != 0 && snap.Hash == prevHash {
			// The pass emitted a byte-identical program: every block is
			// trivially equivalent (the compiler usually elides these
			// snapshots; tolerate drivers that do not).
			prevPass = snap.Pass
			continue
		}
		forms, order, err := blockForms(cache, snap.Prog)
		if err != nil {
			return out, fmt.Errorf("snapshot %s: %w", snap.Pass, err)
		}
		for _, name := range order {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			a, okA := prevForms[name]
			b := forms[name]
			if !okA {
				continue // block introduced by the pass (not in subset)
			}
			v := Verdict{PassA: prevPass, PassB: snap.Pass, Block: name}
			v.Equivalent, v.Counterexample, v.Status = cache.equivalent(ctx, a, b, opts)
			out = append(out, v)
		}
		prevForms, prevPass, prevHash = forms, snap.Pass, snap.Hash
	}
	return out, nil
}

// Failures filters verdicts down to inequivalences.
func Failures(vs []Verdict) []Verdict {
	var out []Verdict
	for _, v := range vs {
		if !v.Equivalent && v.Err == nil && v.Status == solver.Sat {
			out = append(out, v)
		}
	}
	return out
}

// Pair validates two programs directly (used by tests and the
// equivalence-checking example).
func Pair(a, b *ast.Program, opts Options) ([]Verdict, error) {
	cache := opts.cache()
	formsA, orderA, err := blockForms(cache, a)
	if err != nil {
		return nil, err
	}
	formsB, _, err := blockForms(cache, b)
	if err != nil {
		return nil, err
	}
	var out []Verdict
	for _, name := range orderA {
		fb, ok := formsB[name]
		if !ok {
			continue
		}
		v := Verdict{PassA: "A", PassB: "B", Block: name}
		v.Equivalent, v.Counterexample, v.Status = cache.equivalent(context.Background(), formsA[name], fb, opts)
		out = append(out, v)
	}
	return out, nil
}
