package validate

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/printer"
	"gauntlet/internal/smt"
	"gauntlet/internal/smt/solver"
	"gauntlet/internal/sym"
)

// Cache memoizes the two expensive halves of translation validation:
//
//   - Block formulas, keyed by the printed source of the block plus the
//     program's top-level constants (everything a block's symbolic form
//     depends on). A pass that rewrites one control leaves every other
//     block's formula a cache hit, so unchanged blocks are never
//     re-symbolically-executed.
//   - Equivalence verdicts, keyed by the interned ID of the *simplified*
//     equivalence term. Terms are hash-consed process-wide and the miter
//     is canonicalized by smt.Simplify before keying, so the ID is a
//     perfect structural key and syntactically different comparisons that
//     normalize to one canonical formula share one solver call — across
//     snapshots, programs and parallel hunts. Only definitive verdicts
//     (Sat/Unsat) are cached; Unknown depends on the conflict budget.
//
// A Cache is safe for concurrent use and is shared across a campaign's
// worker pool (core.Campaign threads one through every hunt).
//
// Every Cache is bound to one smt.Context: block formulas are symbolic
// forms over that context's terms and verdicts key on that context's
// term IDs, so cache and context form one unit of lifetime. A rotating
// service (the engine's epochs) retires both together — allocate a
// fresh context, wrap it in the old cache's Next, swap, and the old pair
// is reclaimed wholesale once in-flight queries drain. There is no partial
// invalidation: formulas referencing retired terms must never outlive
// their context.
type Cache struct {
	ctx      *smt.Context
	mu       sync.RWMutex
	blocks   map[uint64]*sym.Block
	verdicts map[uint64]verdictEntry
	tapes    map[uint64]*smt.Tape
	counters *cacheCounters
}

// cacheCounters is the cache's hit/miss accounting. Caches made by Next
// share their predecessor's block, so the counters of a chain of
// caches are cumulative over the chain.
type cacheCounters struct {
	blockHits, blockMisses     atomic.Uint64
	verdictHits, verdictMisses atomic.Uint64
	simpResolved               atomic.Uint64

	tapesCompiled     atomic.Uint64
	concolicFalsified atomic.Uint64
	concolicPackets   atomic.Uint64
	replayHits        atomic.Uint64
	solverFallbacks   atomic.Uint64
}

type verdictEntry struct {
	equivalent     bool
	status         solver.Status
	counterexample smt.Assignment
}

// NewCache creates an empty validation cache bound to the default smt
// context.
func NewCache() *Cache { return NewCacheIn(smt.DefaultContext()) }

// NewCacheIn creates an empty validation cache bound to the given smt
// context: every block formula it computes is built there, and verdicts
// key on that context's canonical term IDs.
func NewCacheIn(sctx *smt.Context) *Cache { return newCache(sctx, &cacheCounters{}) }

// Next returns an empty cache bound to sctx that counts into c's
// counters: a rotating engine retires c with its context and keeps
// cumulative counts, increments from calls still in flight on c
// included, without keeping c's maps alive.
func (c *Cache) Next(sctx *smt.Context) *Cache { return newCache(sctx, c.counters) }

func newCache(sctx *smt.Context, cc *cacheCounters) *Cache {
	return &Cache{
		ctx:      sctx,
		blocks:   map[uint64]*sym.Block{},
		verdicts: map[uint64]verdictEntry{},
		tapes:    map[uint64]*smt.Tape{},
		counters: cc,
	}
}

// Context returns the smt context the cache is bound to.
func (c *Cache) Context() *smt.Context { return c.ctx }

// CacheStats is a point-in-time snapshot of every cache counter.
type CacheStats struct {
	BlockHits, BlockMisses     uint64
	VerdictHits, VerdictMisses uint64
	// SimpResolved counts equivalence queries answered by word-level
	// simplification / structural collapse alone: the canonicalized miter
	// was the constant *true* (the sides proved equal), so neither the
	// verdict cache nor the solver was consulted. A constant-false miter —
	// a proven inequivalence — still takes the solver path, because the
	// report needs a counterexample assignment.
	SimpResolved uint64
	// TapesCompiled counts miters compiled to bit-parallel tapes (each
	// simplified miter compiles once per cache lifetime; reruns hit the
	// tape map).
	TapesCompiled uint64
	// ConcolicFalsified counts equivalence queries answered by a concrete
	// counterexample from the tape — mismatch verdicts that cost zero
	// solver work.
	ConcolicFalsified uint64
	// ConcolicPackets counts concrete input assignments executed by the
	// tape (64 per batch), across falsified and survived queries alike.
	ConcolicPackets uint64
	// ReplayHits counts queries decided by replaying a caller-provided
	// counterexample hint (one packet) through the tape — the
	// mismatch-reduction fast path. Hint verdicts are never cached: which
	// hint a caller holds depends on its history, not on the miter.
	ReplayHits uint64
	// SolverFallbacks counts queries where the concolic stage ran and
	// failed to falsify, so a full solver session was built after all.
	SolverFallbacks uint64
}

// Snapshot returns all cache counters at once (the engine's Stats path).
// For a cache made by Next they are cumulative over its predecessors.
func (c *Cache) Snapshot() CacheStats {
	cc := c.counters
	return CacheStats{
		BlockHits: cc.blockHits.Load(), BlockMisses: cc.blockMisses.Load(),
		VerdictHits: cc.verdictHits.Load(), VerdictMisses: cc.verdictMisses.Load(),
		SimpResolved:      cc.simpResolved.Load(),
		TapesCompiled:     cc.tapesCompiled.Load(),
		ConcolicFalsified: cc.concolicFalsified.Load(),
		ConcolicPackets:   cc.concolicPackets.Load(),
		ReplayHits:        cc.replayHits.Load(),
		SolverFallbacks:   cc.solverFallbacks.Load(),
	}
}

// Sub returns s minus base, field by field: what was counted since base
// was taken (an engine epoch's share of the cumulative counters).
func (s CacheStats) Sub(base CacheStats) CacheStats {
	return CacheStats{
		BlockHits: s.BlockHits - base.BlockHits, BlockMisses: s.BlockMisses - base.BlockMisses,
		VerdictHits: s.VerdictHits - base.VerdictHits, VerdictMisses: s.VerdictMisses - base.VerdictMisses,
		SimpResolved:      s.SimpResolved - base.SimpResolved,
		TapesCompiled:     s.TapesCompiled - base.TapesCompiled,
		ConcolicFalsified: s.ConcolicFalsified - base.ConcolicFalsified,
		ConcolicPackets:   s.ConcolicPackets - base.ConcolicPackets,
		ReplayHits:        s.ReplayHits - base.ReplayHits,
		SolverFallbacks:   s.SolverFallbacks - base.SolverFallbacks,
	}
}

// contextKey hashes every top-level declaration a block's formula can
// depend on besides its own body: type definitions (header and struct
// field widths shape every symbolic value), constants, and top-level
// actions/functions (resolved by name during symbolic execution). Only
// other parser/control declarations are excluded — a block never reads
// them. Two programs may print a block identically yet mean different
// formulas under different contexts, so the context is part of the key.
//
// Both keys are FNV-1a over the printed declarations, which the printer
// hashes as it prints them.
func contextKey(prog *ast.Program) uint64 {
	h := printer.NewHash()
	for _, d := range prog.Decls {
		switch d.(type) {
		case *ast.ControlDecl, *ast.ParserDecl:
			continue
		}
		h.WriteDecl(d)
	}
	return h.Sum64()
}

// blockKey hashes one block's printed declaration under the program's
// declaration context.
func blockKey(consts uint64, d ast.Decl) uint64 {
	h := printer.NewHash()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(consts >> (8 * i))
	}
	h.Write(buf[:])
	h.WriteDecl(d)
	return h.Sum64()
}

// blockForm returns the symbolic form of one block, computing and
// memoizing it on miss. Cached *sym.Block values are immutable after
// construction and safe to share across goroutines; because terms are
// hash-consed, two workers that race on the same key produce
// structurally identical (pointer-equal) formulas either way.
func (c *Cache) blockForm(prog *ast.Program, consts uint64, d ast.Decl) (*sym.Block, error) {
	key := blockKey(consts, d)
	c.mu.RLock()
	b, ok := c.blocks[key]
	c.mu.RUnlock()
	if ok {
		c.counters.blockHits.Add(1)
		return b, nil
	}
	var err error
	switch d := d.(type) {
	case *ast.ControlDecl:
		b, err = sym.ExecControlIn(c.ctx, prog, d)
	case *ast.ParserDecl:
		b, err = sym.ExecParserIn(c.ctx, prog, d)
	}
	if err != nil {
		return nil, err
	}
	c.counters.blockMisses.Add(1)
	c.mu.Lock()
	if prev, ok := c.blocks[key]; ok {
		b = prev // keep the first winner so pointer fast paths fire
	} else {
		c.blocks[key] = b
	}
	c.mu.Unlock()
	return b, nil
}

// equivalent decides whether two block forms are observationally equal,
// using the verdict cache and the interning pointer fast path before
// falling back to the solver. Each miss gets a fresh solver instance:
// chain-shared incremental sessions were measured ~15% slower here (the
// per-pair circuits overlap too little for learnt-clause reuse to beat
// the cost of propagating over an accumulated instance), so unlike
// testgen's path enumeration this query stays one-shot.
// A context deadline degrades the verdict to Unknown mid-search, and —
// like conflict-budget exhaustion — an Unknown is never cached: a timeout
// under one budget must not poison the verdict for a later, larger-budget
// query keyed on the same simplified miter.
//
// Between the verdict cache and the solver sits the concolic fast path
// (unless con.Disable): the simplified miter is compiled once into a
// bit-parallel tape, caller-provided counterexample hints are replayed
// first (one packet each; a hit is an immediate Sat that is NOT cached,
// because which hint a caller holds depends on its history, not on the
// miter), then batches of deterministic pseudo-random packets try to
// falsify it before any solver.Session is built. Tape-found verdicts ARE
// cached: the witness is a pure function of (seed, miter structure,
// rounds), so every worker that would compute it computes the same one.
func (c *Cache) equivalent(ctx context.Context, a, b *sym.Block, opts Options) (bool, smt.Assignment, solver.Status) {
	maxConflicts, con := opts.MaxConflicts, opts.Concolic
	// Tier attribution is observation-only: the clock is read exactly
	// once on entry and once per resolved query, and only when a
	// QueryObs hook is installed — the unobserved path pays a nil check.
	var start time.Time
	if opts.QueryObs != nil {
		start = time.Now()
	}
	tier := func(t string) {
		if opts.QueryObs != nil {
			opts.QueryObs(t, time.Since(start))
		}
	}
	if a == b {
		// Same interned formula object: equal by construction.
		tier(TierSimplified)
		return true, nil, solver.Unsat
	}
	eq := sym.Equivalent(a, b)
	if eq.IsTrue() {
		// The canonicalized miter is the constant true: hash-consing made
		// the sides pointer-equal, or word-level simplification collapsed
		// their differences. Either way the query never reaches a solver.
		c.counters.simpResolved.Add(1)
		tier(TierSimplified)
		return true, nil, solver.Unsat
	}
	// sym.Equivalent returns the simplified miter, so this ID is the
	// canonical structural key: distinct raw miters that normalize to one
	// form share a verdict here.
	key := eq.ID()
	c.mu.RLock()
	e, ok := c.verdicts[key]
	c.mu.RUnlock()
	if ok {
		c.counters.verdictHits.Add(1)
		tier(TierCacheHit)
		return e.equivalent, e.counterexample, e.status
	}
	var tp *smt.Tape
	rounds := 0
	if !con.Disable {
		tp = c.tape(key, eq)
		for _, h := range con.Hints {
			if h != nil && tp.EvalOnce(h) == 0 {
				c.counters.replayHits.Add(1)
				tier(TierHintReplay)
				return false, tp.Restrict(h), solver.Sat
			}
		}
		rounds = DefaultConcolicRounds
	}
	equal, cex, st, cr := solver.EquivalentConcolic(ctx, maxConflicts, eq, tp, con.Seed, rounds)
	c.counters.concolicPackets.Add(cr.Packets)
	if cr.Falsified {
		c.counters.concolicFalsified.Add(1)
		tier(TierConcolic)
	} else {
		if tp != nil {
			c.counters.solverFallbacks.Add(1)
		}
		tier(TierCDCL)
	}
	c.counters.verdictMisses.Add(1)
	c.mu.Lock()
	if st != solver.Unknown {
		c.verdicts[key] = verdictEntry{equivalent: equal, status: st, counterexample: cex}
	}
	c.mu.Unlock()
	return equal, cex, st
}

// tape returns the compiled bit-parallel tape for a simplified miter,
// compiling and memoizing on miss. Tapes key on the same canonical ID as
// verdicts and share the cache's lifetime: epoch rotation retires the
// tape map together with its context, so a tape never outlives the terms
// it was compiled from.
func (c *Cache) tape(key uint64, eq *smt.Term) *smt.Tape {
	c.mu.RLock()
	tp, ok := c.tapes[key]
	c.mu.RUnlock()
	if ok {
		return tp
	}
	tp = smt.CompileTape(eq)
	c.counters.tapesCompiled.Add(1)
	c.mu.Lock()
	if prev, ok := c.tapes[key]; ok {
		tp = prev // keep the first winner; its executor pool is warm
	} else {
		c.tapes[key] = tp
	}
	c.mu.Unlock()
	return tp
}
