package generator

import (
	"fmt"

	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/printer"
)

// controlDecl generates a control block. rich controls get tables,
// actions and functions; lean ones (egress) get a smaller construct mix.
func (g *gen) controlDecl(name, metaName string, rich bool) *ast.ControlDecl {
	c := &ast.ControlDecl{
		Name: name,
		Params: []ast.Param{
			{Dir: ast.DirInOut, Name: "hdr", Type: &ast.NamedType{Name: "Headers"}},
			{Dir: ast.DirInOut, Name: "sm", Type: &ast.NamedType{Name: metaName}},
		},
		Apply: &ast.BlockStmt{},
	}

	sc := &scope{}
	// Header field paths.
	for i, h := range g.headers {
		hPath := ast.Member(ast.N("hdr"), fmt.Sprintf("h%d", i+1))
		sc.headerPaths = append(sc.headerPaths, variable{
			expr:     hPath,
			typ:      &ast.HeaderType{Name: h.Name, Fields: h.Fields},
			writable: true,
		})
		for _, f := range h.Fields {
			sc.vars = append(sc.vars, variable{
				expr:     ast.Member(ast.CloneExpr(hPath), f.Name),
				typ:      f.Type,
				writable: true,
			})
		}
	}
	// Metadata fields.
	for _, f := range []struct {
		name string
		w    int
	}{{"ingress_port", 9}, {"egress_spec", 9}, {"drop_flag", 1}, {"user_meta", 16}} {
		sc.vars = append(sc.vars, variable{
			expr:     ast.Member(ast.N("sm"), f.name),
			typ:      &ast.BitType{Width: f.w},
			writable: true,
		})
	}

	nFuncs, nActions, nTables := 0, 0, 0
	if rich {
		nFuncs = g.pick(maxFuncs + 1)
		nActions = 1 + g.pick(maxActions)
		nTables = g.pick(maxTables + 1)
	} else {
		nActions = g.pick(2)
	}

	// Control-local variables.
	for i := 0; i < g.pick(3); i++ {
		w := widthChoices[g.pick(len(widthChoices))]
		v := &ast.VarDecl{
			Name: g.fresh("gv"),
			Type: &ast.BitType{Width: w},
		}
		if g.chance(3, 4) {
			v.Init = ast.Num(w, g.r.Uint64())
		}
		c.Locals = append(c.Locals, v)
		sc.vars = append(sc.vars, variable{expr: ast.N(v.Name), typ: v.Type, writable: true})
		_ = i
	}

	for i := 0; i < nFuncs; i++ {
		f := g.functionDecl(sc)
		c.Locals = append(c.Locals, f)
		sc.funcs = append(sc.funcs, f)
	}

	// Table-bound actions carry only directionless (control-plane)
	// parameters; direct-call actions may use directions.
	var tableActions []*ast.ActionDecl
	for i := 0; i < nActions; i++ {
		forTable := nTables > 0 && g.chance(2, 3)
		a := g.actionDecl(sc, forTable)
		c.Locals = append(c.Locals, a)
		sc.actions = append(sc.actions, a)
		if forTable {
			tableActions = append(tableActions, a)
		}
	}

	for i := 0; i < nTables; i++ {
		t := g.tableDecl(sc, tableActions)
		c.Locals = append(c.Locals, t)
		sc.tables = append(sc.tables, t)
	}

	ctx := stmtCtx{allowExit: true, allowApply: true, allowCalls: true}
	c.Apply.Stmts = g.stmts(sc.clone(), g.cfg.MaxStmts, ctx)
	return c
}

// functionDecl generates a helper function: a bit-typed return, a mix of
// parameter directions, and a body that always ends in a return (with a
// chance of an early return — the Fig. 5a shape).
func (g *gen) functionDecl(outer *scope) *ast.FunctionDecl {
	w := widthChoices[g.pick(len(widthChoices))]
	f := &ast.FunctionDecl{
		Name:   g.fresh("fun"),
		Return: &ast.BitType{Width: w},
	}
	sc := outer.clone()
	sc.funcs = nil // no recursion, no calls to later functions
	nParams := 1 + g.pick(2)
	for i := 0; i < nParams; i++ {
		pw := widthChoices[g.pick(len(widthChoices))]
		dir := []ast.Direction{ast.DirIn, ast.DirInOut, ast.DirOut}[g.pick(3)]
		p := ast.Param{Dir: dir, Name: g.fresh("pv"), Type: &ast.BitType{Width: pw}}
		f.Params = append(f.Params, p)
		sc.vars = append(sc.vars, variable{expr: ast.N(p.Name), typ: p.Type, writable: dir != ast.DirIn})
	}
	ctx := stmtCtx{inFunction: true, returnWidth: w, allowCalls: false}
	body := g.stmts(sc, 1+g.pick(4), ctx)
	// Out parameters must be definitely assigned before use; give each an
	// unconditional initial store so reads are defined.
	var pre []ast.Stmt
	for _, p := range f.Params {
		if p.Dir == ast.DirOut {
			pw := p.Type.(*ast.BitType).Width
			pre = append(pre, ast.Assign(ast.N(p.Name), ast.Num(pw, g.r.Uint64())))
		}
	}
	body = append(pre, body...)
	body = append(body, &ast.ReturnStmt{Value: g.bitExpr(sc, w, exprDepth)})
	f.Body = ast.Block(body...)
	return f
}

// actionDecl generates an action. Table-bound actions take only
// directionless parameters; direct-call actions may take inout/out
// parameters (the Fig. 5d/5f shapes).
func (g *gen) actionDecl(outer *scope, forTable bool) *ast.ActionDecl {
	a := &ast.ActionDecl{Name: g.fresh("act")}
	sc := outer.clone()
	sc.actions = nil // actions cannot call actions
	nParams := g.pick(3)
	for i := 0; i < nParams; i++ {
		pw := widthChoices[g.pick(len(widthChoices))]
		dir := ast.DirNone
		if !forTable && g.chance(1, 2) {
			dir = []ast.Direction{ast.DirIn, ast.DirInOut}[g.pick(2)]
		}
		p := ast.Param{Dir: dir, Name: g.fresh("av"), Type: &ast.BitType{Width: pw}}
		a.Params = append(a.Params, p)
		sc.vars = append(sc.vars, variable{
			expr:     ast.N(p.Name),
			typ:      p.Type,
			writable: p.Dir == ast.DirInOut || p.Dir == ast.DirOut,
		})
	}
	ctx := stmtCtx{inAction: true, allowExit: g.chance(1, 2), allowCalls: true}
	a.Body = ast.Block(g.stmts(sc, 1+g.pick(g.cfg.MaxStmts/2+1), ctx)...)
	return a
}

// tableDecl generates a match-action table over the given action pool.
func (g *gen) tableDecl(sc *scope, pool []*ast.ActionDecl) *ast.TableDecl {
	t := &ast.TableDecl{Name: g.fresh("t")}
	nKeys := 1 + g.pick(2)
	bits := sc.bitVars(false)
	for i := 0; i < nKeys && len(bits) > 0; i++ {
		v := bits[g.pick(len(bits))]
		t.Keys = append(t.Keys, ast.TableKey{Expr: ast.CloneExpr(v.expr), Match: ast.MatchExact})
	}
	for _, a := range pool {
		if g.chance(3, 4) {
			t.Actions = append(t.Actions, ast.ActionRef{Name: a.Name})
		}
	}
	t.Actions = append(t.Actions, ast.ActionRef{Name: "NoAction"})
	// Default action: one of the listed ones, with literal control-plane
	// arguments.
	idx := g.pick(len(t.Actions))
	ref := ast.ActionRef{Name: t.Actions[idx].Name}
	if ref.Name != "NoAction" {
		for _, a := range pool {
			if a.Name == ref.Name {
				for _, p := range a.Params {
					w := p.Type.(*ast.BitType).Width
					ref.Args = append(ref.Args, ast.Num(w, g.r.Uint64()))
				}
			}
		}
	}
	t.Default = &ref
	return t
}

// stmtCtx carries context-sensitive generation constraints.
type stmtCtx struct {
	inAction    bool
	inFunction  bool
	returnWidth int
	allowExit   bool
	allowApply  bool
	allowCalls  bool
}

// stmts generates up to budget statements.
func (g *gen) stmts(sc *scope, budget int, ctx stmtCtx) []ast.Stmt {
	var out []ast.Stmt
	n := 1 + g.pick(budget)
	for i := 0; i < n; i++ {
		s := g.stmt(sc, ctx, budget/2)
		if s == nil {
			continue
		}
		out = append(out, s)
		// exit/return end the straight-line flow.
		switch s.(type) {
		case *ast.ExitStmt, *ast.ReturnStmt:
			return out
		}
	}
	return out
}

func (g *gen) stmt(sc *scope, ctx stmtCtx, subBudget int) ast.Stmt {
	total := 0
	for _, w := range stmtWeights {
		total += w
	}
	kind, roll := 0, g.pick(total)
	for roll >= stmtWeights[kind] {
		roll -= stmtWeights[kind]
		kind++
	}
	switch kind {
	case stmtAssign:
		return g.assignStmt(sc)
	case stmtIf:
		return g.ifStmt(sc, ctx, subBudget)
	case stmtSwitch:
		return g.switchStmt(sc, ctx, subBudget)
	case stmtActionCall:
		if !ctx.allowCalls || ctx.inAction || ctx.inFunction {
			return g.assignStmt(sc)
		}
		return g.actionCallStmt(sc)
	case stmtFuncCall:
		if !ctx.allowCalls || ctx.inFunction {
			return g.assignStmt(sc)
		}
		return g.funcCallStmt(sc)
	case stmtTableApply:
		if !ctx.allowApply || len(sc.tables) == 0 {
			return g.assignStmt(sc)
		}
		t := sc.tables[g.pick(len(sc.tables))]
		return &ast.CallStmt{Call: ast.Call(ast.Member(ast.N(t.Name), "apply"))}
	case stmtVarDecl:
		return g.varDeclStmt(sc)
	case stmtValidity:
		if len(sc.headerPaths) == 0 {
			return g.assignStmt(sc)
		}
		h := sc.headerPaths[g.pick(len(sc.headerPaths))]
		method := "setValid"
		if g.chance(1, 2) {
			method = "setInvalid"
		}
		return &ast.CallStmt{Call: ast.Call(ast.Member(ast.CloneExpr(h.expr), method))}
	case stmtExit:
		if ctx.allowExit && !ctx.inFunction {
			return &ast.ExitStmt{}
		}
		if ctx.inFunction && ctx.returnWidth > 0 && g.chance(1, 2) {
			return &ast.ReturnStmt{Value: g.bitExpr(sc, ctx.returnWidth, 2)}
		}
		return g.assignStmt(sc)
	default:
		return &ast.BlockStmt{Stmts: g.stmts(sc.clone(), maxInt(subBudget, 1), ctx)}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (g *gen) assignStmt(sc *scope) ast.Stmt {
	// Occasionally assign a bool variable.
	if bools := sc.boolVars(true); len(bools) > 0 && g.chance(1, 6) {
		v := bools[g.pick(len(bools))]
		return ast.Assign(ast.CloneExpr(v.expr), g.boolExpr(sc, exprDepth))
	}
	bits := sc.bitVars(true)
	if len(bits) == 0 {
		return &ast.EmptyStmt{}
	}
	v := bits[g.pick(len(bits))]
	vw := v.typ.(*ast.BitType).Width
	lhs := ast.CloneExpr(v.expr)
	w := vw
	// Slice assignment with some probability (the Fig. 5d shape).
	if vw >= 2 && g.chance(1, 5) {
		lo := g.pick(vw - 1)
		hi := lo + g.pick(vw-lo)
		lhs = &ast.SliceExpr{X: lhs, Hi: hi, Lo: lo}
		w = hi - lo + 1
	}
	return ast.Assign(lhs, g.bitExpr(sc, w, exprDepth))
}

func (g *gen) varDeclStmt(sc *scope) ast.Stmt {
	w := widthChoices[g.pick(len(widthChoices))]
	d := &ast.VarDeclStmt{Name: g.fresh("lv"), Type: &ast.BitType{Width: w}}
	// Mostly initialized; occasionally left undefined (the generator
	// accommodates undefined behaviour on purpose, §4.1).
	if g.chance(5, 6) {
		d.Init = g.bitExpr(sc, w, exprDepth)
	}
	sc.vars = append(sc.vars, variable{expr: ast.N(d.Name), typ: d.Type, writable: true})
	return d
}

func (g *gen) ifStmt(sc *scope, ctx stmtCtx, budget int) ast.Stmt {
	cond := g.boolExpr(sc, exprDepth)
	then := ast.Block(g.stmts(sc.clone(), maxInt(budget, 1), ctx)...)
	var els ast.Stmt
	if g.chance(1, 2) {
		els = ast.Block(g.stmts(sc.clone(), maxInt(budget, 1), ctx)...)
	}
	return ast.If(cond, then, els)
}

func (g *gen) switchStmt(sc *scope, ctx stmtCtx, budget int) ast.Stmt {
	bits := sc.bitVars(false)
	if len(bits) == 0 {
		return g.assignStmt(sc)
	}
	v := bits[g.pick(len(bits))]
	w := v.typ.(*ast.BitType).Width
	s := &ast.SwitchStmt{Tag: ast.CloneExpr(v.expr)}
	nCases := 1 + g.pick(2)
	for i := 0; i < nCases; i++ {
		s.Cases = append(s.Cases, ast.SwitchCase{
			Labels: []ast.Expr{ast.Num(w, g.r.Uint64())},
			Body:   ast.Block(g.stmts(sc.clone(), maxInt(budget, 1), ctx)...),
		})
	}
	s.Cases = append(s.Cases, ast.SwitchCase{
		Body: ast.Block(g.stmts(sc.clone(), maxInt(budget, 1), ctx)...),
	})
	return s
}

// actionCallStmt builds a direct action invocation with well-typed
// arguments: expressions for in/directionless, distinct writable lvalues
// for inout/out.
func (g *gen) actionCallStmt(sc *scope) ast.Stmt {
	if len(sc.actions) == 0 {
		return g.assignStmt(sc)
	}
	a := sc.actions[g.pick(len(sc.actions))]
	call := ast.Call(ast.N(a.Name))
	used := map[string]bool{}
	for _, p := range a.Params {
		pw := p.Type.(*ast.BitType).Width
		if p.Dir == ast.DirInOut || p.Dir == ast.DirOut {
			lv := g.writableLValue(sc, pw, used)
			if lv == nil {
				return g.assignStmt(sc) // no distinct lvalue available
			}
			call.Args = append(call.Args, lv)
			continue
		}
		call.Args = append(call.Args, g.bitExpr(sc, pw, 2))
	}
	return &ast.CallStmt{Call: call}
}

func (g *gen) funcCallStmt(sc *scope) ast.Stmt {
	if len(sc.funcs) == 0 {
		return g.assignStmt(sc)
	}
	f := sc.funcs[g.pick(len(sc.funcs))]
	call := ast.Call(ast.N(f.Name))
	used := map[string]bool{}
	for _, p := range f.Params {
		pw := p.Type.(*ast.BitType).Width
		if p.Dir.Writes() {
			lv := g.writableLValue(sc, pw, used)
			if lv == nil {
				return g.assignStmt(sc)
			}
			call.Args = append(call.Args, lv)
			continue
		}
		call.Args = append(call.Args, g.bitExpr(sc, pw, 2))
	}
	rw := f.Return.(*ast.BitType).Width
	// Half the time use the result, half discard it.
	if g.chance(1, 2) {
		if lv := g.writableLValue(sc, rw, used); lv != nil {
			return ast.Assign(lv, call)
		}
	}
	return &ast.CallStmt{Call: call}
}

// writableLValue finds a writable lvalue of exactly the given width whose
// root is not in used (avoiding overlapping out arguments), possibly
// slicing a wider variable.
func (g *gen) writableLValue(sc *scope, w int, used map[string]bool) ast.Expr {
	var candidates []ast.Expr
	for _, v := range sc.bitVars(true) {
		vw := v.typ.(*ast.BitType).Width
		key := printer.PrintExpr(v.expr)
		if used[key] {
			continue
		}
		if vw == w {
			candidates = append(candidates, ast.CloneExpr(v.expr))
		} else if vw > w {
			lo := g.pick(vw - w + 1)
			candidates = append(candidates, &ast.SliceExpr{
				X: ast.CloneExpr(v.expr), Hi: lo + w - 1, Lo: lo,
			})
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	ch := candidates[g.pick(len(candidates))]
	if root := ast.RootIdent(ch); root != nil {
		// Mark the whole chain root expression as used, conservatively.
		used[printer.PrintExpr(stripSlice(ch))] = true
	}
	return ch
}

func stripSlice(e ast.Expr) ast.Expr {
	if s, ok := e.(*ast.SliceExpr); ok {
		return s.X
	}
	return e
}
