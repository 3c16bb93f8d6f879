package sym

import (
	"fmt"

	"gauntlet/internal/p4/ast"
	"gauntlet/internal/smt"
)

// Error reports a symbolic interpretation failure. For type-checked
// programs in the supported subset these indicate interpreter limitations
// (e.g. parser loops) rather than program errors — the paper's §5.2
// describes co-evolving the interpreter with the generator precisely to
// drive these out.
type Error struct {
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return "sym: " + e.Msg }

func symErrorf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// packetRef marks a packet parameter binding in the environment.
type packetRef struct{}

func (*packetRef) symValue()    {}
func (*packetRef) Clone() Value { return &packetRef{} }

// frame tracks one callable invocation (return handling).
type frame struct {
	retVal Value // merged return value (nil for void)
}

// Interp converts programs into symbolic form. Create with NewInterp (or
// NewInterpIn to route all term construction through a specific
// smt.Context — the engine's epoch contexts enter here).
type Interp struct {
	ctx   *smt.Context
	prog  *ast.Program
	undef *Undef

	ctrl *ast.ControlDecl

	frames []*frame

	// branchDepth tracks nesting of guarded execution; packet extracts
	// require branch-free context so the cursor stays concrete.
	branchDepth int

	// Parser/deparser packet model.
	pktBits []*smt.Term // one bit<1> input var per packet bit
	pktLen  *smt.Term   // symbolic packet length in bits
	pktOff  int         // concrete extract cursor (per DFS path)
	reject  *smt.Term   // accumulated parser reject condition
	emits   []EmitRecord

	// branchConds records every data-dependent branching term in
	// execution order; symbolic-execution test generation enumerates
	// paths by toggling their polarities (§6.2).
	branchConds []*smt.Term

	// tableVars names the symbolic table keys, action selectors and
	// action arguments introduced (Fig. 3 encoding).
	tableVars []string
}

// EmitRecord describes one deparser emit: the condition under which the
// header is emitted and its field terms in order.
type EmitRecord struct {
	Cond   *smt.Term
	Fields []NamedTerm
}

// NewInterpIn creates a symbolic interpreter whose terms — every
// variable, constant and formula of the block forms it produces — live
// in the given smt context, so a rotating service can retire them as one
// generation.
func NewInterpIn(sctx *smt.Context, prog *ast.Program) *Interp {
	return &Interp{ctx: sctx, prog: prog, undef: &Undef{Ctx: sctx}}
}

func (in *Interp) noteBranch(cond *smt.Term) {
	if !cond.IsConst() {
		in.branchConds = append(in.branchConds, cond)
	}
}

// calleeRoot finds the control-scope environment in the state's chain.
func calleeRoot(s *state) *env {
	for sc := s.env; sc != nil; sc = sc.parent {
		if sc.root {
			return sc
		}
	}
	return s.env
}

func (in *Interp) execBlock(s *state, b *ast.BlockStmt) error {
	if b == nil {
		return nil
	}
	s.env = newEnv(s.env)
	defer func() { s.env = s.env.parent }()
	for _, st := range b.Stmts {
		if err := in.execStmt(s, st); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) execStmt(s *state, st ast.Stmt) error {
	switch st := st.(type) {
	case *ast.AssignStmt:
		v, err := in.evalExpr(s, st.RHS)
		if err != nil {
			return err
		}
		return in.assignLV(s, st.LHS, v)
	case *ast.VarDeclStmt:
		var v Value
		if st.Init != nil {
			iv, err := in.evalExpr(s, st.Init)
			if err != nil {
				return err
			}
			v = iv.Clone()
		} else {
			v = NewUndefValue(st.Type, in.undef)
		}
		s.env.declare(st.Name, v)
		return nil
	case *ast.ConstDeclStmt:
		v, err := in.evalExpr(s, st.Value)
		if err != nil {
			return err
		}
		s.env.declare(st.Name, v.Clone())
		return nil
	case *ast.IfStmt:
		cv, err := in.evalExpr(s, st.Cond)
		if err != nil {
			return err
		}
		cond := cv.(*BoolVal).T
		in.noteBranch(cond)
		in.branchDepth++
		defer func() { in.branchDepth-- }()

		sThen := s.clone()
		sThen.live = smt.And(s.live, cond)
		if err := in.execBlock(sThen, st.Then); err != nil {
			return err
		}
		sElse := s.clone()
		sElse.live = smt.And(s.live, smt.Not(cond))
		if st.Else != nil {
			if err := in.execStmt(sElse, st.Else); err != nil {
				return err
			}
		}
		*s = *mergeState(cond, sThen, sElse)
		return nil
	case *ast.BlockStmt:
		return in.execBlock(s, st)
	case *ast.CallStmt:
		_, err := in.evalCall(s, st.Call)
		return err
	case *ast.ReturnStmt:
		if len(in.frames) == 0 {
			// Return in a control apply terminates the block.
			s.live = in.ctx.False()
			return nil
		}
		fr := in.frames[len(in.frames)-1]
		if st.Value != nil {
			v, err := in.evalExpr(s, st.Value)
			if err != nil {
				return err
			}
			if fr.retVal == nil {
				fr.retVal = v.Clone()
			} else {
				fr.retVal = Merge(s.live, v, fr.retVal)
			}
		}
		s.live = in.ctx.False()
		return nil
	case *ast.ExitStmt:
		s.exited = smt.Or(s.exited, s.live)
		s.live = in.ctx.False()
		return nil
	case *ast.EmptyStmt:
		return nil
	case *ast.SwitchStmt:
		return in.execSwitch(s, st)
	default:
		return symErrorf("unsupported statement %T", st)
	}
}

func (in *Interp) execSwitch(s *state, st *ast.SwitchStmt) error {
	tv, err := in.evalExpr(s, st.Tag)
	if err != nil {
		return err
	}
	tag := tv.(*BitVal).T
	in.branchDepth++
	defer func() { in.branchDepth-- }()

	noPrior := in.ctx.True()
	var defaultBody *ast.BlockStmt
	for i := range st.Cases {
		c := &st.Cases[i]
		if c.Labels == nil {
			defaultBody = c.Body
			continue
		}
		match := in.ctx.False()
		for _, l := range c.Labels {
			lv, err := in.evalExpr(s, l)
			if err != nil {
				return err
			}
			match = smt.Or(match, smt.Eq(tag, lv.(*BitVal).T))
		}
		eff := smt.And(noPrior, match)
		in.noteBranch(eff)
		branch := s.clone()
		branch.live = smt.And(s.live, eff)
		if err := in.execBlock(branch, c.Body); err != nil {
			return err
		}
		*s = *mergeState(eff, branch, s)
		noPrior = smt.And(noPrior, smt.Not(match))
	}
	if defaultBody != nil {
		in.noteBranch(noPrior)
		branch := s.clone()
		branch.live = smt.And(s.live, noPrior)
		if err := in.execBlock(branch, defaultBody); err != nil {
			return err
		}
		*s = *mergeState(noPrior, branch, s)
	}
	return nil
}

// assignLV stores v at the lvalue, guarded by the state's liveness. The
// value is cloned so later writes through other aliases cannot leak in.
func (in *Interp) assignLV(s *state, lhs ast.Expr, v Value) error {
	v = v.Clone()
	switch l := lhs.(type) {
	case *ast.Ident:
		return s.assignGuarded(l.Name, v)
	case *ast.MemberExpr:
		cont, err := in.evalExpr(s, l.X)
		if err != nil {
			return err
		}
		switch c := cont.(type) {
		case *StructVal:
			old, ok := c.F[l.Member]
			if !ok {
				return symErrorf("struct has no field %q", l.Member)
			}
			c.F[l.Member] = Merge(s.live, v, old)
			return nil
		case *HeaderVal:
			old, ok := c.F[l.Member]
			if !ok {
				return symErrorf("header has no field %q", l.Member)
			}
			c.F[l.Member] = Merge(s.live, v, old)
			return nil
		default:
			return symErrorf("member assignment on non-composite value")
		}
	case *ast.SliceExpr:
		cur, err := in.evalExpr(s, l.X)
		if err != nil {
			return err
		}
		cb, ok := cur.(*BitVal)
		if !ok {
			return symErrorf("slice assignment on non-bit value")
		}
		nv, ok := v.(*BitVal)
		if !ok {
			return symErrorf("slice assignment of non-bit value")
		}
		w := cb.T.W
		var parts *smt.Term
		// Rebuild the base value: high bits ++ new slice ++ low bits.
		parts = smt.Trunc(nv.T, l.Hi-l.Lo+1)
		if l.Hi+1 < w {
			parts = smt.Concat(smt.Extract(cb.T, w-1, l.Hi+1), parts)
		}
		if l.Lo > 0 {
			parts = smt.Concat(parts, smt.Extract(cb.T, l.Lo-1, 0))
		}
		return in.assignLV(s, l.X, &BitVal{T: parts})
	default:
		return symErrorf("assignment to non-lvalue %T", lhs)
	}
}
