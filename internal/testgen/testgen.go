// Package testgen implements Gauntlet's symbolic-execution test-case
// generation (§6): from the composed pipeline formula it enumerates
// program paths by toggling branch-condition polarities, solves each path
// condition for a concrete input (preferring non-zero values, §6.2), and
// computes the expected output packet from the same model. The resulting
// input/output packet pairs drive black-box back ends (the Tofino
// stand-in) through their packet test framework.
package testgen

import (
	"context"
	"fmt"
	"math/bits"
	"strings"

	"gauntlet/internal/bitstream"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/eval"
	"gauntlet/internal/smt"
	"gauntlet/internal/smt/solver"
	"gauntlet/internal/sym"
)

// Case is one end-to-end test: an input packet and table configuration,
// plus the expected result predicted by the symbolic semantics.
type Case struct {
	// Packet is the input packet.
	Packet []byte
	// Config is the table state to install before injecting the packet.
	Config eval.Config
	// ExpectDrop is true when the pipeline should emit nothing (parser
	// reject).
	ExpectDrop bool
	// ExpectPacket is the expected output packet when not dropped.
	ExpectPacket []byte
	// Model is the full solver assignment (diagnostics).
	Model smt.Assignment
	// PathID identifies the branch-polarity combination.
	PathID string
}

// Options bounds test generation.
type Options struct {
	// MaxCases caps the number of generated tests.
	MaxCases int
	// MaxConflicts bounds each solver call.
	MaxConflicts int
	// DisablePreferences turns off the non-zero / non-literal /
	// large-value model steering and the complement second model — the
	// ablation showing why §6.2 asks Z3 for non-zero pairs.
	DisablePreferences bool
	// DisableSteering turns off concrete-trace branch ordering: by
	// default, two 64-packet batches of deterministic pseudo-random
	// inputs run through a bit-parallel tape over the toggled branch
	// conditions, and each condition's rarely-taken polarity is probed
	// first — so under a binding MaxCases budget the suite covers the
	// paths random execution would miss, instead of re-deriving the
	// common ones. Ordering is a pure function of the condition terms'
	// structure, so it is identical across runs and worker counts.
	DisableSteering bool
	// SMT is the context the symbolic pipeline and every auxiliary
	// constraint are built in (nil = the default context). The engine
	// passes its current epoch context so test generation's terms are
	// reclaimed with the epoch.
	SMT *smt.Context
}

// smtCtx returns the configured smt context, defaulting to the
// process-wide one.
func (o Options) smtCtx() *smt.Context {
	if o.SMT != nil {
		return o.SMT
	}
	return smt.DefaultContext()
}

// maxBranches bounds how many branch conditions are toggled (deeper
// conditions keep their solver-chosen polarity). Guards against the
// exponential path explosion the paper notes (§6.2).
const maxBranches = 10

// DefaultOptions mirrors the paper's small-program regime.
func DefaultOptions() Options {
	return Options{MaxCases: 32, MaxConflicts: 200000}
}

// Generate builds test cases for a program's full pipeline.
func Generate(prog *ast.Program, opts Options) ([]Case, error) {
	return GenerateContext(context.Background(), prog, opts)
}

// GenerateContext is Generate with cancellation: the context is checked at
// every node of the path enumeration and polled inside each solver probe
// (a deadline degrades the probe to Unknown mid-search), and when it fires
// mid-stream the cases gathered so far are returned together with
// ctx.Err().
//
// Programs outside the symbolic subset (e.g. named-type locals the
// pipeline composer cannot model) surface as errors, not panics: like an
// interpreter gap, an unsupported construct is a tool limitation to count,
// never a finding — fuzzing streams must keep flowing past it.
func GenerateContext(ctx context.Context, prog *ast.Program, opts Options) (cases []Case, err error) {
	defer func() {
		if r := recover(); r != nil {
			cases, err = nil, fmt.Errorf("testgen: symbolic pipeline: %v", r)
		}
	}()
	pipe, perr := sym.PipelineOfIn(opts.smtCtx(), prog)
	if perr != nil {
		return nil, perr
	}
	return FromPipelineContext(ctx, prog, pipe, opts)
}

// FromPipelineContext builds test cases from an already-composed
// pipeline, with cancellation (see GenerateContext).
func FromPipelineContext(ctx context.Context, prog *ast.Program, pipe *sym.Pipeline, opts Options) ([]Case, error) {
	if opts.MaxCases <= 0 {
		opts.MaxCases = 32
	}

	// Base constraints: byte-aligned packet length within the parser's
	// reach, and the target's undefined-value semantics pinned (§6.2
	// choice 2: ascribe specific values and check conformance): undefined
	// values are zero, as on the zero-filling device.
	// Build every auxiliary term in the pipeline's context: the formula
	// and its constraints retire together when the owning epoch does.
	sctx := pipe.Ctx
	if sctx == nil {
		sctx = opts.smtCtx()
	}
	maxBits := ((pipe.PacketBits + 7) / 8) * 8
	pktLen := sctx.Var("pkt_len", 32)
	base := []*smt.Term{
		smt.Ule(pktLen, sctx.Const(uint64(maxBits), 32)),
		smt.Eq(smt.Extract(pktLen, 2, 0), sctx.Const(0, 3)),
	}
	// Pipeline-entry state the target initializes (standard metadata):
	// the device zero-fills it, so the formula's free inputs must be
	// pinned the same way or expectations would assume uncontrollable
	// values (§6.2's environment-problem discipline).
	for _, ext := range pipe.ExternalInputs {
		v := ext.Term
		if v.Op != smt.OpVar {
			continue
		}
		if v.IsBool() {
			base = append(base, smt.Not(v))
			continue
		}
		base = append(base, smt.Eq(v, sctx.Const(0, v.W)))
	}
	for _, h := range pipe.HavocNames {
		w := havocWidth(h)
		if w == 0 {
			base = append(base, smt.Not(sctx.BoolVar(h)))
			continue
		}
		base = append(base, smt.Eq(sctx.Var(h, w), sctx.Const(0, w)))
	}

	conds := pipe.BranchConds
	if len(conds) > maxBranches {
		conds = conds[:maxBranches]
	}

	// Model preferences, applied greedily per path: every parsed field
	// non-zero (§6.2: "zero values by default may mask erroneous
	// behavior"), and away from the program's own literals — boundary
	// collisions with program constants mask miscompilations the same way
	// zero does.
	var prefs []*smt.Term
	for _, f := range pipe.FieldTerms {
		if f.IsBool() || f.IsConst() {
			continue
		}
		prefs = append(prefs, smt.Ne(f, sctx.Const(0, f.W)))
	}
	for _, lit := range programLiterals(prog) {
		for _, f := range pipe.FieldTerms {
			if f.IsBool() || f.IsConst() {
				continue
			}
			prefs = append(prefs, smt.Ne(f, sctx.Const(lit, f.W)))
		}
	}
	// Prefer large values: saturating/overflowing arithmetic only
	// misbehaves near the top of the range, so small solver-default
	// values would mask those miscompilations just like zeros (§6.2).
	for _, f := range pipe.FieldTerms {
		if f.IsBool() || f.IsConst() || f.W < 2 {
			continue
		}
		half := uint64(1) << uint(f.W-1)
		prefs = append(prefs, smt.Uge(f, sctx.Const(half, f.W)))
	}
	if len(prefs) > 48 {
		prefs = prefs[:48]
	}
	if opts.DisablePreferences {
		prefs = nil
	}

	// One incremental solving session drives the whole enumeration: the
	// base constraints are bit-blasted once, every branch condition and
	// preference is encoded once (as an assumption literal), and each
	// probe or path solve is a solve-under-assumptions on the shared SAT
	// instance. Learnt clauses from one path prune the others, which is
	// what makes deep path enumeration affordable.
	sess := solver.NewSessionContext(ctx, opts.MaxConflicts)
	defer sess.Close()
	sess.Assert(base...)
	condLits := make([]solver.Lit, len(conds))
	for i, c := range conds {
		condLits[i] = sess.Lit(c)
	}
	prefGroups := make([][]solver.Lit, len(prefs))
	for i, p := range prefs {
		prefGroups[i] = []solver.Lit{sess.Lit(p)}
	}
	// pinField builds an assumption group forcing field f to the concrete
	// value v, from f's already-blasted bit literals — no new clauses or
	// terms per path, unlike encoding Eq(f, Const(v)) would.
	pinField := func(f *smt.Term, v uint64) []solver.Lit {
		bits := sess.BVLits(f)
		g := make([]solver.Lit, len(bits))
		for i, l := range bits {
			if v>>uint(i)&1 == 1 {
				g[i] = l
			} else {
				g[i] = l.Neg()
			}
		}
		return g
	}

	// Concrete trace steering: which polarity to probe first, per
	// condition (true = the true side is common under random inputs, so
	// probe the false side first).
	var bias []bool
	if !opts.DisableSteering {
		bias = steerBias(conds)
	}

	ev := smt.NewEvaluator()
	var cases []Case
	seen := map[string]bool{}
	// DFS over branch polarities, pruning unsatisfiable prefixes: real
	// path enumeration with a budget.
	var walk func(idx int, fixed []solver.Lit, id string)
	walk = func(idx int, fixed []solver.Lit, id string) {
		if len(cases) >= opts.MaxCases || ctx.Err() != nil {
			return
		}
		if idx == len(conds) {
			res := sess.SolveAssumingSoft(fixed, prefGroups)
			if res.Status != solver.Sat {
				return
			}
			add := func(m smt.Assignment) {
				c := buildCase(prog, pipe, m, id, ev)
				key := fmt.Sprintf("%x|%v|%v", c.Packet, c.ExpectDrop, c.ExpectPacket)
				if !seen[key] {
					seen[key] = true
					cases = append(cases, c)
				}
			}
			add(res.Model)
			if opts.DisablePreferences {
				return
			}
			// Second model per path with every parsed field complemented
			// (soft): a defect sensitive to any single input bit differs
			// between the two models, so boundary collisions with one
			// lucky value cannot mask it.
			if len(cases) < opts.MaxCases {
				var compl [][]solver.Lit
				for _, f := range pipe.FieldTerms {
					if f.IsBool() || f.IsConst() {
						continue
					}
					v := ev.Eval(f, res.Model)
					compl = append(compl, pinField(f, ^v))
				}
				res2 := sess.SolveAssumingSoft(fixed, compl)
				if res2.Status == solver.Sat {
					add(res2.Model)
				}
			}
			return
		}
		// Quick feasibility probe per polarity (an incremental query, not
		// a fresh solver). The PathID mark records the polarity actually
		// taken, so steering reorders exploration without renaming paths.
		pair := [2]solver.Lit{condLits[idx], condLits[idx].Neg()}
		marks := [2]string{"1", "0"}
		if bias != nil && bias[idx] {
			pair[0], pair[1] = pair[1], pair[0]
			marks[0], marks[1] = marks[1], marks[0]
		}
		for pi, lit := range pair {
			if len(cases) >= opts.MaxCases {
				return
			}
			if sess.Check(append(fixed, lit)...) == solver.Sat {
				walk(idx+1, append(fixed, lit), id+marks[pi])
			}
		}
	}
	walk(0, nil, "")
	if err := ctx.Err(); err != nil {
		// Deadline fired mid-enumeration: hand back every case gathered so
		// far together with the cancellation cause, so a caller under a
		// watchdog can still use the partial suite (mirrors
		// validate.SnapshotsContext).
		return cases, err
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("testgen: no satisfiable path found")
	}
	return cases, nil
}

// programLiterals collects the distinct sized integer literal values
// appearing in the program's executable bodies (deduplicated, capped).
func programLiterals(prog *ast.Program) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	visit := func(e ast.Expr) bool {
		if l, ok := e.(*ast.IntLit); ok && l.Width > 0 && !seen[l.Val] {
			seen[l.Val] = true
			out = append(out, l.Val)
		}
		return len(out) < 8
	}
	for _, d := range prog.Decls {
		c, ok := d.(*ast.ControlDecl)
		if !ok {
			continue
		}
		for _, l := range c.Locals {
			if a, isA := l.(*ast.ActionDecl); isA {
				ast.InspectStmt(a.Body, nil, visit)
			}
		}
		ast.InspectStmt(c.Apply, nil, visit)
	}
	return out
}

func havocWidth(name string) int {
	var w int
	fmt.Sscanf(name, "havoc_%d", &w)
	return w
}

// steerSeed keys the deterministic input batches used for branch-bias
// measurement. A fixed constant: the batches themselves still vary per
// program because the tape fingerprint (structural, run-stable) is mixed
// into every derivation.
const steerSeed = 0x5ee7a11c0113c0de

// steerRounds is the concrete budget for bias measurement: two 64-packet
// batches per program. More rounds sharpen the estimate but the sign of
// the bias — all enumeration needs — stabilizes almost immediately on
// the skewed conditions that matter.
const steerRounds = 2

// steerBias executes the toggled branch conditions bit-parallel over
// deterministic pseudo-random packets and reports, per condition, whether
// random concrete execution mostly takes the true side. Enumeration then
// probes the minority side first: those are the branches random traces
// leave unexplored.
func steerBias(conds []*smt.Term) []bool {
	if len(conds) == 0 {
		return nil
	}
	tp := smt.CompileTape(conds...)
	e := tp.Exec()
	defer tp.Release(e)
	taken := make([]int, len(conds))
	for r := 0; r < steerRounds; r++ {
		e.FillRound(steerSeed, r)
		e.Run()
		for i := range conds {
			taken[i] += bits.OnesCount64(e.RootBits(i))
		}
	}
	bias := make([]bool, len(conds))
	for i, n := range taken {
		bias[i] = 2*n > steerRounds*64
	}
	return bias
}

// CaseFromModel materializes one already-solved (or cached) model into a
// concrete test case. It is the replay entry point: a mismatch-reduction
// predicate holds the original finding's Case.Model and re-derives the
// expected output against a reduction candidate's pipeline without any
// solver work.
func CaseFromModel(prog *ast.Program, pipe *sym.Pipeline, m smt.Assignment, id string) Case {
	return buildCase(prog, pipe, m, id, smt.NewEvaluator())
}

// buildCase materializes one model into packet bytes, table entries and
// the expected output. The evaluator is reused across cases so the per-
// case term walks stop allocating memo tables.
func buildCase(prog *ast.Program, pipe *sym.Pipeline, m smt.Assignment, id string, ev *smt.Evaluator) Case {
	c := Case{Model: m, PathID: id}

	// Input packet.
	lenBits := int(m["pkt_len"])
	w := bitstream.NewWriter()
	for i := 0; i < lenBits; i++ {
		bit := m[fmt.Sprintf("pkt_%d", i)] & 1
		_ = w.WriteBits(bit, 1)
	}
	c.Packet = w.Bytes()

	// Table configuration from the symbolic table variables (the inverse
	// of the Fig. 3 encoding).
	c.Config = ConfigFromModel(prog, m)

	// Expected output.
	if ev.Eval(pipe.Reject, m) == 1 {
		c.ExpectDrop = true
		return c
	}
	ow := bitstream.NewWriter()
	for _, e := range pipe.Emits {
		if ev.Eval(e.Cond, m) != 1 {
			continue
		}
		for _, f := range e.Fields {
			_ = ow.WriteBits(ev.Eval(f.Term, m), f.Term.W)
		}
	}
	c.ExpectPacket = ow.Bytes()
	return c
}

// ConfigFromModel converts symbolic table-variable assignments into a
// concrete table configuration: for each table, one entry with the model's
// key, bound to the model's action choice (when it names a listed action).
func ConfigFromModel(prog *ast.Program, m smt.Assignment) eval.Config {
	cfg := eval.Config{}
	for _, ctrl := range prog.Controls() {
		for _, tbl := range ctrl.Tables() {
			prefix := ctrl.Name + "." + tbl.Name
			tc := &eval.TableConfig{}
			idx := int(m[prefix+".action"])
			if idx >= 1 && idx <= len(tbl.Actions) && len(tbl.Keys) > 0 {
				key := make([]uint64, len(tbl.Keys))
				for i := range tbl.Keys {
					key[i] = m[fmt.Sprintf("%s.key_%d", prefix, i)]
				}
				name := tbl.Actions[idx-1].Name
				var args []uint64
				if ad, ok := ctrl.LocalByName(name).(*ast.ActionDecl); ok {
					for _, p := range ad.Params {
						args = append(args, m[prefix+"."+name+".arg_"+p.Name])
					}
				}
				tc.Entries = append(tc.Entries, eval.TableEntry{Key: key, Action: name, Args: args})
			}
			cfg[prefix] = tc
		}
	}
	return cfg
}

// Summary renders a one-line description of a case for STF/PTF logs.
func (c Case) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "path=%s pkt=%x", c.PathID, c.Packet)
	if c.ExpectDrop {
		b.WriteString(" expect=drop")
	} else {
		fmt.Fprintf(&b, " expect=%x", c.ExpectPacket)
	}
	return b.String()
}
