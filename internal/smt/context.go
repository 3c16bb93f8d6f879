package smt

// Context is an explicit, scoped owner of the mutable state behind term
// construction: the hash-consing interner and the simplification /
// canonical-rank memo. Everything the solver stack accumulates while
// building and rewriting terms lives in exactly one Context, so a
// long-running service can bound its memory by *rotating* contexts —
// allocate a fresh one at an epoch boundary, route new construction
// through it, and let the retired context (terms, simplify memo and all)
// become garbage as soon as the last in-flight query drops its reference.
// That is the epoch-based reclamation ROADMAP's "interner growth is
// unbounded" item asks for: nothing is evicted term-by-term; whole
// generations retire at once, at deterministic boundaries.
//
// Construction is context-routed from the leaves up: the leaf
// constructors (Var, Const, Bool, True, False) are Context methods, and
// every composite constructor infers its context from its arguments, so
// a formula built from context-owned leaves lives entirely in that
// context without threading a handle through every call site. The
// package-level constructors and True/False remain as the *default
// context* — for tests, examples and core.Campaign; an engine builds in
// contexts of its own.
//
// Mixing rules: constant and variable leaves from another context are
// transparently re-interned ("adopted") into the target context when
// they appear as arguments — they are self-contained, so adoption is
// O(1) and keeps pointer-equality invariants intact. Composite terms
// must not cross contexts (that would alias structure across epochs and
// silently defeat reclamation); composing them panics.
//
// A Context is safe for concurrent use by any number of goroutines.
type Context struct {
	in   *Interner
	simp [simpShards]simpShard

	trueT, falseT *Term
}

// NewContext creates an empty context with its own interner and
// simplification memo.
func NewContext() *Context {
	c := &Context{in: NewInterner()}
	c.trueT = c.Bool(true)
	c.falseT = c.Bool(false)
	return c
}

// defaultCtx backs the package-level constructors and caches. It is
// initialized before True/False (Go resolves package var dependencies).
var defaultCtx = NewContext()

// DefaultContext returns the process-wide default context behind the
// package-level constructors. Long-lived services should build formulas
// in their own rotating contexts and treat the default as
// test/example-scale only: its interner is never reclaimed.
func DefaultContext() *Context { return defaultCtx }

// Context returns the context that owns the term.
func (t *Term) Context() *Context { return t.ctx }

// True returns the context's boolean constant true.
func (c *Context) True() *Term { return c.trueT }

// False returns the context's boolean constant false.
func (c *Context) False() *Term { return c.falseT }

// Var creates a bitvector variable of the given width in this context
// (boolean when width is 0).
func (c *Context) Var(name string, width int) *Term {
	return c.intern(&Term{Op: OpVar, W: width, Name: name})
}

// BoolVar creates a boolean variable in this context.
func (c *Context) BoolVar(name string) *Term { return c.Var(name, 0) }

// Const creates a bitvector constant in this context, masked to width.
func (c *Context) Const(val uint64, width int) *Term {
	return c.intern(&Term{Op: OpConst, W: width, Val: mask(val, width)})
}

// Bool creates a boolean constant in this context.
func (c *Context) Bool(v bool) *Term {
	val := uint64(0)
	if v {
		val = 1
	}
	return c.intern(&Term{Op: OpConst, W: 0, Val: val})
}

// adopt re-interns a leaf term from another context into c. Only leaves
// are self-contained enough to migrate; composite structure crossing
// contexts is a bug (it would alias one epoch's terms from another and
// defeat reclamation), so it panics.
func (c *Context) adopt(a *Term) *Term {
	switch a.Op {
	case OpConst:
		return c.Const(a.Val, a.W)
	case OpVar:
		return c.Var(a.Name, a.W)
	}
	panic("smt: composite term used across Contexts (build each formula in one context)")
}

// intern routes a freshly built node into the context's interner,
// adopting any foreign leaf arguments first (the hash mixes argument
// IDs, so adoption must precede hashing).
func (c *Context) intern(t *Term) *Term {
	for i, a := range t.Args {
		if a.ctx != c {
			t.Args[i] = c.adopt(a)
		}
	}
	t.ctx = c
	return c.in.Intern(t)
}

// ctxOf picks the owning context for a node built from args. The first
// composite argument pins ownership (composites cannot be adopted; a
// second composite from another context still panics at intern time) —
// unless that composite lives in the default context while another
// argument is epoch-owned: then the epoch context wins, so intern's
// composite guard panics loudly instead of the node silently capturing
// epoch terms into the immortal default interner. When every argument
// is an adoptable leaf (constant or variable), the first *non-default*
// leaf context wins — mixing default-context leaves into an epoch
// formula routes the node into the epoch context regardless of operand
// order, never the other way around. Empty n-ary constructors fall back
// to the default context.
func ctxOf(ts ...*Term) *Context {
	var pin, leaf, nonDefault *Context
	for _, t := range ts {
		if t.ctx != defaultCtx && nonDefault == nil {
			nonDefault = t.ctx
		}
		if t.Op != OpConst && t.Op != OpVar {
			if pin == nil {
				pin = t.ctx
			}
			continue
		}
		if leaf == nil || (leaf == defaultCtx && t.ctx != defaultCtx) {
			leaf = t.ctx
		}
	}
	switch {
	case pin != nil && pin == defaultCtx && nonDefault != nil:
		return nonDefault
	case pin != nil:
		return pin
	case leaf != nil:
		return leaf
	}
	return defaultCtx
}

// ContextStats is a point-in-time snapshot of one context's memory and
// cache counters — the per-epoch observables a rotating service watches.
type ContextStats struct {
	// Interner snapshots the context's term table (entries, estimated
	// bytes, shard occupancy).
	Interner InternerInfo
	// Simp snapshots the context's simplification memo.
	Simp SimplifyInfo
}

// InternerStats snapshots this context's interner.
func (c *Context) InternerStats() InternerInfo { return c.in.Info() }

// SimplifyStats snapshots this context's simplification memo.
func (c *Context) SimplifyStats() SimplifyInfo {
	var info SimplifyInfo
	for i := range c.simp {
		s := &c.simp[i]
		s.mu.Lock()
		info.Entries += uint64(len(s.simplified))
		info.Hits += s.hits
		info.Misses += s.misses
		s.mu.Unlock()
	}
	return info
}

// Stats snapshots the context's interner and simplification memo at
// once.
func (c *Context) Stats() ContextStats {
	return ContextStats{Interner: c.InternerStats(), Simp: c.SimplifyStats()}
}
