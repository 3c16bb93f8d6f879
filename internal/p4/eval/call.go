package eval

import (
	"gauntlet/internal/p4/ast"
)

// evalCall evaluates a call expression. stmtCtx is true when the call is a
// statement (void context). Returns the call's value (nil for void).
func (in *Interp) evalCall(e *env, call *ast.CallExpr, stmtCtx bool) (Value, error) {
	// Method calls.
	if m, ok := call.Func.(*ast.MemberExpr); ok {
		return in.evalMethod(e, call, m)
	}
	id, ok := call.Func.(*ast.Ident)
	if !ok {
		return nil, rtErrorf("call target is not callable")
	}
	if id.Name == "NoAction" {
		return nil, nil
	}
	// Resolve the callee: control locals shadow top-level declarations.
	var params []ast.Param
	var body *ast.BlockStmt
	isFunc := false
	if in.ctrlDecl != nil {
		switch d := in.ctrlDecl.LocalByName(id.Name).(type) {
		case *ast.ActionDecl:
			params, body = d.Params, d.Body
		case *ast.FunctionDecl:
			params, body, isFunc = d.Params, d.Body, true
		}
	}
	if body == nil {
		switch d := in.prog.DeclByName(id.Name).(type) {
		case *ast.ActionDecl:
			params, body = d.Params, d.Body
		case *ast.FunctionDecl:
			params, body, isFunc = d.Params, d.Body, true
		default:
			return nil, rtErrorf("call to unknown %q", id.Name)
		}
	}
	_ = isFunc
	return in.invoke(e, params, body, call.Args, nil)
}

// invoke performs a call with P4 copy-in/copy-out semantics. cpArgs, if
// non-nil, provides concrete values for directionless (control-plane)
// parameters, as supplied by a table entry; direct calls bind them from
// call arguments instead.
//
// Per the specification clarification triggered by the paper (§7.2,
// Fig. 5f), an exit inside the callee still performs copy-out before
// propagating.
func (in *Interp) invoke(caller *env, params []ast.Param, body *ast.BlockStmt,
	args []ast.Expr, cpArgs []uint64) (Value, error) {

	// The callee scope is rooted at the control scope, not the call site:
	// actions and functions see control parameters and locals.
	callee := newEnv(in.ctrlEnv)

	// Copy-in, left to right.
	cpIdx := 0
	for i, p := range params {
		if p.Dir == ast.DirNone && cpArgs != nil {
			callee.declare(p.Name, &BitVal{
				Width: ast.BitWidth(p.Type),
				V:     ast.MaskWidth(cpArgs[cpIdx], ast.BitWidth(p.Type)),
			})
			cpIdx++
			continue
		}
		switch p.Dir {
		case ast.DirOut:
			callee.declare(p.Name, NewValue(p.Type))
		default:
			v, err := in.evalExpr(caller, args[i])
			if err != nil {
				return nil, err
			}
			callee.declare(p.Name, v.Clone())
		}
	}

	// Execute the body.
	var retVal Value
	err := in.execBlock(callee, body)
	var exited bool
	switch sig := err.(type) {
	case nil:
	case *returnSignal:
		retVal = sig.val
	case *exitSignal:
		exited = true
	default:
		return nil, err
	}

	// Copy-out, left to right, into the caller's argument lvalues.
	for i, p := range params {
		if p.Dir == ast.DirNone || !p.Dir.Writes() {
			continue
		}
		v, _ := callee.get(p.Name)
		if err := in.assign(caller, args[i], v.Clone()); err != nil {
			return nil, err
		}
	}

	if exited {
		return nil, &exitSignal{}
	}
	return retVal, nil
}

func (in *Interp) evalMethod(e *env, call *ast.CallExpr, m *ast.MemberExpr) (Value, error) {
	switch m.Member {
	case "setValid", "setInvalid", "isValid":
		hv, err := in.evalExpr(e, m.X)
		if err != nil {
			return nil, err
		}
		h, ok := hv.(*HeaderVal)
		if !ok {
			return nil, rtErrorf("%s on non-header %s", m.Member, hv)
		}
		switch m.Member {
		case "setValid":
			if !h.Valid {
				// Freshly validated headers have undefined field values
				// (§5.2 header-validity semantics), which read as zero.
				for _, f := range h.T.Fields {
					w := ast.BitWidth(f.Type)
					h.F[f.Name] = &BitVal{Width: w}
				}
			}
			h.Valid = true
			return nil, nil
		case "setInvalid":
			h.Valid = false
			return nil, nil
		default:
			return &BoolVal{V: h.Valid}, nil
		}
	case "apply":
		id, ok := m.X.(*ast.Ident)
		if !ok {
			return nil, rtErrorf("apply on non-table expression")
		}
		return nil, in.applyTable(e, id.Name)
	case "extract":
		return nil, in.extract(e, call)
	case "emit":
		return nil, in.emit(e, call)
	default:
		return nil, rtErrorf("unknown method %q", m.Member)
	}
}

func (in *Interp) extract(e *env, call *ast.CallExpr) error {
	pv, err := in.packetArg(e, call)
	if err != nil {
		return err
	}
	hv, err := in.evalExpr(e, call.Args[0])
	if err != nil {
		return err
	}
	h, ok := hv.(*HeaderVal)
	if !ok {
		return rtErrorf("extract into non-header %s", hv)
	}
	if pv.R == nil {
		return rtErrorf("extract on a write-only packet")
	}
	for _, f := range h.T.Fields {
		w := ast.BitWidth(f.Type)
		bits, err := pv.R.ReadBits(w)
		if err != nil {
			// Short packet: the parser rejects.
			return ErrReject
		}
		h.F[f.Name] = &BitVal{Width: w, V: bits}
	}
	h.Valid = true
	return nil
}

func (in *Interp) emit(e *env, call *ast.CallExpr) error {
	pv, err := in.packetArg(e, call)
	if err != nil {
		return err
	}
	hv, err := in.evalExpr(e, call.Args[0])
	if err != nil {
		return err
	}
	h, ok := hv.(*HeaderVal)
	if !ok {
		return rtErrorf("emit of non-header %s", hv)
	}
	if pv.W == nil {
		return rtErrorf("emit on a read-only packet")
	}
	if !h.Valid {
		return nil // emitting an invalid header is a no-op
	}
	for _, f := range h.T.Fields {
		w := ast.BitWidth(f.Type)
		b, ok := h.F[f.Name].(*BitVal)
		if !ok {
			return rtErrorf("emit of non-bit field %q", f.Name)
		}
		if err := pv.W.WriteBits(b.V, w); err != nil {
			return rtErrorf("emit: %v", err)
		}
	}
	return nil
}

// packetArg resolves the receiver packet of an extract/emit call.
func (in *Interp) packetArg(e *env, call *ast.CallExpr) (*PacketVal, error) {
	m := call.Func.(*ast.MemberExpr)
	rv, err := in.evalExpr(e, m.X)
	if err != nil {
		return nil, err
	}
	pv, ok := rv.(*PacketVal)
	if !ok {
		return nil, rtErrorf("packet method on non-packet %s", rv)
	}
	if len(call.Args) != 1 {
		return nil, rtErrorf("packet method takes one argument")
	}
	return pv, nil
}

// applyTable executes a match-action table under the current control-plane
// configuration. Missing configuration means an empty table: the default
// action runs.
func (in *Interp) applyTable(e *env, name string) error {
	tbl, ok := in.ctrlDecl.LocalByName(name).(*ast.TableDecl)
	if !ok {
		return rtErrorf("apply of unknown table %q", name)
	}
	cfg := in.tables[in.ctrlName+"."+name]

	// Evaluate key expressions in order.
	keys := make([]uint64, len(tbl.Keys))
	for i, k := range tbl.Keys {
		v, err := in.evalExpr(e, k.Expr)
		if err != nil {
			return err
		}
		switch v := v.(type) {
		case *BitVal:
			keys[i] = v.V
		case *BoolVal:
			if v.V {
				keys[i] = 1
			}
		default:
			return rtErrorf("table %s key %d is not a bit value", name, i)
		}
	}

	// Find the matching entry (exact match on every key).
	var hit *TableEntry
	if cfg != nil && len(tbl.Keys) > 0 {
		for i := range cfg.Entries {
			ent := &cfg.Entries[i]
			if len(ent.Key) != len(keys) {
				continue
			}
			match := true
			for j := range keys {
				if ent.Key[j] != keys[j] {
					match = false
					break
				}
			}
			if match {
				hit = ent
				break
			}
		}
	}

	if hit != nil {
		return in.runTableAction(e, tbl, hit.Action, hit.Args)
	}
	// Miss: run the configured default override, else the program default,
	// else NoAction.
	if cfg != nil && cfg.DefaultAction != nil {
		return in.runTableAction(e, tbl, cfg.DefaultAction.Action, cfg.DefaultAction.Args)
	}
	if tbl.Default != nil {
		args := make([]uint64, len(tbl.Default.Args))
		for i, a := range tbl.Default.Args {
			v, err := in.evalExpr(e, a)
			if err != nil {
				return err
			}
			b, ok := v.(*BitVal)
			if !ok {
				return rtErrorf("default_action argument %d is not a bit value", i)
			}
			args[i] = b.V
		}
		return in.runTableAction(e, tbl, tbl.Default.Name, args)
	}
	return nil
}

func (in *Interp) runTableAction(e *env, tbl *ast.TableDecl, action string, cpArgs []uint64) error {
	if action == "NoAction" {
		return nil
	}
	ad, ok := in.ctrlDecl.LocalByName(action).(*ast.ActionDecl)
	if !ok {
		if d, ok2 := in.prog.DeclByName(action).(*ast.ActionDecl); ok2 {
			ad = d
		} else {
			return rtErrorf("table %s action %q not found", tbl.Name, action)
		}
	}
	if len(cpArgs) != len(ad.Params) {
		return rtErrorf("table %s action %s expects %d control-plane args, got %d",
			tbl.Name, action, len(ad.Params), len(cpArgs))
	}
	_, err := in.invoke(e, ad.Params, ad.Body, nil, cpArgs)
	return err
}
