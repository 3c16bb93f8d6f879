package eval

import (
	"errors"
	"fmt"

	"gauntlet/internal/p4/ast"
)

// RuntimeError reports a failure during interpretation. For type-checked
// programs these indicate interpreter bugs or resource limits (e.g. parser
// loops), not program errors.
type RuntimeError struct {
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string { return "eval: " + e.Msg }

func rtErrorf(format string, args ...any) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...)}
}

// ErrReject is returned by ExecParser when the FSM transitions to reject
// (including short packets on extract). Targets drop the packet.
var ErrReject = errors.New("parser: transition to reject")

// Control-flow signals, implemented as sentinel errors.
type returnSignal struct {
	val Value // nil for void returns
}

func (*returnSignal) Error() string { return "return" }

type exitSignal struct{}

func (*exitSignal) Error() string { return "exit" }

// TableEntry is one control-plane match-action entry: exact-match key
// values (one per table key, in order) and an action with its
// control-plane arguments.
type TableEntry struct {
	Key    []uint64
	Action string
	Args   []uint64
}

// TableConfig is the control-plane state of one table.
type TableConfig struct {
	Entries []TableEntry
	// DefaultAction overrides the program's default_action when non-nil.
	DefaultAction *TableEntry
}

// Config maps "<control>.<table>" to table state.
type Config map[string]*TableConfig

// Interp interprets programs. The zero value is not usable; call New.
type Interp struct {
	prog   *ast.Program
	tables Config
	// MaxParserSteps bounds parser FSM execution (loop guard; the paper
	// found a P4C crash caused by a parser loop, §7.1).
	MaxParserSteps int

	// control-scope environment of the control currently executing, used
	// as the parent scope for action/function bodies.
	ctrlEnv  *env
	ctrlName string
	ctrlDecl *ast.ControlDecl
}

// New creates an interpreter for a resolved, type-checked program. cfg
// may be nil (all tables empty).
func New(prog *ast.Program, cfg Config) *Interp {
	if cfg == nil {
		cfg = Config{}
	}
	return &Interp{prog: prog, tables: cfg, MaxParserSteps: 1024}
}

// env is a lexical scope chain of name → value bindings.
type env struct {
	parent *env
	names  map[string]Value
}

func newEnv(parent *env) *env { return &env{parent: parent, names: map[string]Value{}} }

func (e *env) get(name string) (Value, bool) {
	for sc := e; sc != nil; sc = sc.parent {
		if v, ok := sc.names[name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (e *env) declare(name string, v Value) { e.names[name] = v }

// set updates name in its defining scope; it must already be declared.
func (e *env) set(name string, v Value) error {
	for sc := e; sc != nil; sc = sc.parent {
		if _, ok := sc.names[name]; ok {
			sc.names[name] = v
			return nil
		}
	}
	return rtErrorf("assignment to undeclared %q", name)
}

// ExecControl runs a control block. args must match the control's
// parameters; entries for out/inout parameters are replaced in the slice
// with the copied-out values. Packet-typed arguments are shared, not
// copied.
func (in *Interp) ExecControl(c *ast.ControlDecl, args []Value) error {
	if len(args) != len(c.Params) {
		return rtErrorf("control %s expects %d args, got %d", c.Name, len(c.Params), len(args))
	}
	scope := newEnv(nil)
	in.bindParams(scope, c.Params, args)
	savedEnv, savedName, savedDecl := in.ctrlEnv, in.ctrlName, in.ctrlDecl
	in.ctrlEnv, in.ctrlName, in.ctrlDecl = scope, c.Name, c
	defer func() { in.ctrlEnv, in.ctrlName, in.ctrlDecl = savedEnv, savedName, savedDecl }()

	for _, l := range c.Locals {
		switch d := l.(type) {
		case *ast.VarDecl:
			var v Value
			if d.Init != nil {
				iv, err := in.evalExpr(scope, d.Init)
				if err != nil {
					return err
				}
				v = iv.Clone()
			} else {
				v = NewValue(d.Type)
			}
			scope.declare(d.Name, v)
		case *ast.ConstDecl:
			v, err := in.evalExpr(scope, d.Value)
			if err != nil {
				return err
			}
			scope.declare(d.Name, v.Clone())
		}
	}

	err := in.execBlock(newEnv(scope), c.Apply)
	switch err.(type) {
	case nil:
	case *exitSignal, *returnSignal:
		// exit / return terminate the control normally; copy-out still
		// happens (the paper's clarified exit semantics, §7.2).
		err = nil
	default:
		return err
	}
	copyOutParams(c.Params, args, scope)
	return nil
}

func (in *Interp) bindParams(scope *env, params []ast.Param, args []Value) {
	for i, p := range params {
		if _, isPkt := p.Type.(*ast.PacketType); isPkt {
			scope.declare(p.Name, args[i])
			continue
		}
		switch p.Dir {
		case ast.DirOut:
			scope.declare(p.Name, NewValue(p.Type))
		default: // in, inout, none
			scope.declare(p.Name, args[i].Clone())
		}
	}
}

func copyOutParams(params []ast.Param, args []Value, scope *env) {
	for i, p := range params {
		if p.Dir.Writes() {
			v, _ := scope.get(p.Name)
			args[i] = v
		}
	}
}

// ExecParser runs a parser FSM starting at "start". Returns ErrReject on
// transitions to reject (including short extracts).
func (in *Interp) ExecParser(p *ast.ParserDecl, args []Value) error {
	if len(args) != len(p.Params) {
		return rtErrorf("parser %s expects %d args, got %d", p.Name, len(p.Params), len(args))
	}
	scope := newEnv(nil)
	in.bindParams(scope, p.Params, args)

	state := "start"
	steps := 0
	for state != "accept" && state != "reject" {
		steps++
		if steps > in.MaxParserSteps {
			return rtErrorf("parser %s exceeded %d steps (state loop?)", p.Name, in.MaxParserSteps)
		}
		st := p.StateByName(state)
		if st == nil {
			return rtErrorf("parser %s: unknown state %q", p.Name, state)
		}
		senv := newEnv(scope)
		rejected := false
		for _, s := range st.Stmts {
			if err := in.execStmt(senv, s); err != nil {
				if errors.Is(err, ErrReject) {
					rejected = true
					break
				}
				return err
			}
		}
		if rejected {
			state = "reject"
			continue
		}
		next, err := in.transition(senv, st)
		if err != nil {
			return err
		}
		state = next
	}
	if state == "reject" {
		return ErrReject
	}
	copyOutParams(p.Params, args, scope)
	return nil
}

func (in *Interp) transition(senv *env, st *ast.ParserState) (string, error) {
	switch tr := st.Trans.(type) {
	case nil:
		return "accept", nil
	case *ast.TransDirect:
		return tr.Next, nil
	case *ast.TransSelect:
		v, err := in.evalExpr(senv, tr.Expr)
		if err != nil {
			return "", err
		}
		bv, ok := v.(*BitVal)
		if !ok {
			return "", rtErrorf("select on non-bit value %s", v)
		}
		deflt := ""
		for _, c := range tr.Cases {
			if c.Value == nil {
				if deflt == "" {
					deflt = c.Next
				}
				continue
			}
			if c.Value.Val == bv.V {
				return c.Next, nil
			}
		}
		if deflt != "" {
			return deflt, nil
		}
		// No match and no default: reject (P4₁₆ §12.6).
		return "reject", nil
	default:
		return "", rtErrorf("unknown transition %T", st.Trans)
	}
}

func (in *Interp) execBlock(e *env, b *ast.BlockStmt) error {
	if b == nil {
		return nil
	}
	scope := newEnv(e)
	for _, s := range b.Stmts {
		if err := in.execStmt(scope, s); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) execStmt(e *env, s ast.Stmt) error {
	switch s := s.(type) {
	case *ast.AssignStmt:
		v, err := in.evalExpr(e, s.RHS)
		if err != nil {
			return err
		}
		return in.assign(e, s.LHS, v.Clone())
	case *ast.VarDeclStmt:
		var v Value
		if s.Init != nil {
			iv, err := in.evalExpr(e, s.Init)
			if err != nil {
				return err
			}
			v = iv.Clone()
		} else {
			v = NewValue(s.Type)
		}
		e.declare(s.Name, v)
		return nil
	case *ast.ConstDeclStmt:
		v, err := in.evalExpr(e, s.Value)
		if err != nil {
			return err
		}
		e.declare(s.Name, v.Clone())
		return nil
	case *ast.IfStmt:
		cv, err := in.evalExpr(e, s.Cond)
		if err != nil {
			return err
		}
		b, ok := cv.(*BoolVal)
		if !ok {
			return rtErrorf("if condition is not bool: %s", cv)
		}
		if b.V {
			return in.execBlock(e, s.Then)
		}
		if s.Else != nil {
			return in.execStmt(newEnv(e), s.Else)
		}
		return nil
	case *ast.BlockStmt:
		return in.execBlock(e, s)
	case *ast.CallStmt:
		_, err := in.evalCall(e, s.Call, true)
		return err
	case *ast.ReturnStmt:
		sig := &returnSignal{}
		if s.Value != nil {
			v, err := in.evalExpr(e, s.Value)
			if err != nil {
				return err
			}
			sig.val = v.Clone()
		}
		return sig
	case *ast.ExitStmt:
		return &exitSignal{}
	case *ast.EmptyStmt:
		return nil
	case *ast.SwitchStmt:
		tv, err := in.evalExpr(e, s.Tag)
		if err != nil {
			return err
		}
		tb, ok := tv.(*BitVal)
		if !ok {
			return rtErrorf("switch tag is not a bit value: %s", tv)
		}
		var deflt *ast.BlockStmt
		for i := range s.Cases {
			if s.Cases[i].Labels == nil {
				deflt = s.Cases[i].Body
				continue
			}
			for _, l := range s.Cases[i].Labels {
				lv, err := in.evalExpr(e, l)
				if err != nil {
					return err
				}
				if lb, ok := lv.(*BitVal); ok && lb.V == tb.V {
					return in.execBlock(e, s.Cases[i].Body)
				}
			}
		}
		if deflt != nil {
			return in.execBlock(e, deflt)
		}
		return nil
	default:
		return rtErrorf("unsupported statement %T", s)
	}
}

// assign stores v at the lvalue lhs. Slice assignment merges bits into the
// base lvalue.
func (in *Interp) assign(e *env, lhs ast.Expr, v Value) error {
	switch l := lhs.(type) {
	case *ast.Ident:
		return e.set(l.Name, v)
	case *ast.MemberExpr:
		cont, err := in.evalExpr(e, l.X)
		if err != nil {
			return err
		}
		switch c := cont.(type) {
		case *StructVal:
			if _, ok := c.F[l.Member]; !ok {
				return rtErrorf("struct has no field %q", l.Member)
			}
			c.F[l.Member] = v
			return nil
		case *HeaderVal:
			if _, ok := c.F[l.Member]; !ok {
				return rtErrorf("header has no field %q", l.Member)
			}
			// Field writes are stored regardless of validity; validity
			// gates only deparsing and output comparison. This matches
			// the P4C/BMv2 behaviour the paper's semantics align with.
			c.F[l.Member] = v
			return nil
		default:
			return rtErrorf("member assignment on non-composite %s", cont)
		}
	case *ast.SliceExpr:
		cur, err := in.evalExpr(e, l.X)
		if err != nil {
			return err
		}
		cb, ok := cur.(*BitVal)
		if !ok {
			return rtErrorf("slice assignment on non-bit %s", cur)
		}
		nv, ok := v.(*BitVal)
		if !ok {
			return rtErrorf("slice assignment of non-bit %s", v)
		}
		width := l.Hi - l.Lo + 1
		mask := ast.MaskWidth(^uint64(0), width) << uint(l.Lo)
		merged := (cb.V &^ mask) | (ast.MaskWidth(nv.V, width) << uint(l.Lo))
		return in.assign(e, l.X, &BitVal{Width: cb.Width, V: ast.MaskWidth(merged, cb.Width)})
	default:
		return rtErrorf("assignment to non-lvalue %T", lhs)
	}
}
