package ast

import "fmt"

// Inspect walks the expression tree rooted at e in pre-order, calling f for
// each node. If f returns false the node's children are skipped.
func Inspect(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch e := e.(type) {
	case *Ident, *IntLit, *BoolLit:
	case *UnaryExpr:
		Inspect(e.X, f)
	case *BinaryExpr:
		Inspect(e.X, f)
		Inspect(e.Y, f)
	case *MuxExpr:
		Inspect(e.Cond, f)
		Inspect(e.Then, f)
		Inspect(e.Else, f)
	case *CastExpr:
		Inspect(e.X, f)
	case *MemberExpr:
		Inspect(e.X, f)
	case *SliceExpr:
		Inspect(e.X, f)
	case *CallExpr:
		Inspect(e.Func, f)
		for _, a := range e.Args {
			Inspect(a, f)
		}
	default:
		panic(fmt.Sprintf("ast.Inspect: unknown expression %T", e))
	}
}

// InspectStmt walks the statement tree in pre-order, calling fs for each
// statement (children skipped when fs returns false) and fe for every
// expression contained in visited statements. Either callback may be nil.
func InspectStmt(s Stmt, fs func(Stmt) bool, fe func(Expr) bool) {
	if s == nil {
		return
	}
	if fs != nil && !fs(s) {
		return
	}
	expr := func(e Expr) {
		if fe != nil && e != nil {
			Inspect(e, fe)
		}
	}
	switch s := s.(type) {
	case *AssignStmt:
		expr(s.LHS)
		expr(s.RHS)
	case *VarDeclStmt:
		expr(s.Init)
	case *ConstDeclStmt:
		expr(s.Value)
	case *IfStmt:
		expr(s.Cond)
		InspectStmt(s.Then, fs, fe)
		InspectStmt(s.Else, fs, fe)
	case *BlockStmt:
		for _, st := range s.Stmts {
			InspectStmt(st, fs, fe)
		}
	case *CallStmt:
		expr(s.Call)
	case *ReturnStmt:
		expr(s.Value)
	case *ExitStmt, *EmptyStmt:
	case *SwitchStmt:
		expr(s.Tag)
		for _, c := range s.Cases {
			for _, l := range c.Labels {
				expr(l)
			}
			InspectStmt(c.Body, fs, fe)
		}
	default:
		panic(fmt.Sprintf("ast.InspectStmt: unknown statement %T", s))
	}
}

// StmtLists calls f for every statement list of prog, each before the
// lists nested in its if, block and switch statements: control-local
// action and function bodies, then the control's apply block, top-level
// function and action bodies, and parser states, in declaration order.
// inParser reports a list inside a parser state. The order is a pure
// function of program structure, so the nth list of a clone is the nth
// list of the original.
func StmtLists(prog *Program, f func(list *[]Stmt, inParser bool)) {
	var list func(l *[]Stmt, inParser bool)
	block := func(b *BlockStmt, inParser bool) {
		if b != nil {
			list(&b.Stmts, inParser)
		}
	}
	list = func(l *[]Stmt, inParser bool) {
		f(l, inParser)
		for _, s := range *l {
			switch s := s.(type) {
			case *IfStmt:
				block(s.Then, inParser)
				if els, ok := s.Else.(*BlockStmt); ok {
					block(els, inParser)
				}
			case *BlockStmt:
				block(s, inParser)
			case *SwitchStmt:
				for i := range s.Cases {
					block(s.Cases[i].Body, inParser)
				}
			}
		}
	}
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ControlDecl:
			for _, l := range d.Locals {
				switch l := l.(type) {
				case *ActionDecl:
					block(l.Body, false)
				case *FunctionDecl:
					block(l.Body, false)
				}
			}
			block(d.Apply, false)
		case *FunctionDecl:
			block(d.Body, false)
		case *ActionDecl:
			block(d.Body, false)
		case *ParserDecl:
			for i := range d.States {
				list(&d.States[i].Stmts, true)
			}
		}
	}
}

// RewriteExpr rebuilds an expression bottom-up, applying f to every node
// after its children have been rewritten. f must return a non-nil
// replacement (possibly the node itself). The input is not mutated if f
// always returns fresh nodes; passes conventionally clone first.
func RewriteExpr(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Ident, *IntLit, *BoolLit:
	case *UnaryExpr:
		x.X = RewriteExpr(x.X, f)
	case *BinaryExpr:
		x.X = RewriteExpr(x.X, f)
		x.Y = RewriteExpr(x.Y, f)
	case *MuxExpr:
		x.Cond = RewriteExpr(x.Cond, f)
		x.Then = RewriteExpr(x.Then, f)
		x.Else = RewriteExpr(x.Else, f)
	case *CastExpr:
		x.X = RewriteExpr(x.X, f)
	case *MemberExpr:
		x.X = RewriteExpr(x.X, f)
	case *SliceExpr:
		x.X = RewriteExpr(x.X, f)
	case *CallExpr:
		x.Func = RewriteExpr(x.Func, f)
		for i, a := range x.Args {
			x.Args[i] = RewriteExpr(a, f)
		}
	default:
		panic(fmt.Sprintf("ast.RewriteExpr: unknown expression %T", e))
	}
	return f(e)
}

// RewriteStmt rebuilds a statement tree bottom-up. fe (if non-nil) rewrites
// every contained expression; fs (if non-nil) maps each statement to a
// replacement slice, allowing deletion (empty slice) and expansion. A nil
// fs keeps statements unchanged.
func RewriteStmt(s Stmt, fs func(Stmt) []Stmt, fe func(Expr) Expr) []Stmt {
	if s == nil {
		return nil
	}
	rw := func(e Expr) Expr {
		if fe == nil || e == nil {
			return e
		}
		return RewriteExpr(e, fe)
	}
	switch x := s.(type) {
	case *AssignStmt:
		x.LHS = rw(x.LHS)
		x.RHS = rw(x.RHS)
	case *VarDeclStmt:
		x.Init = rw(x.Init)
	case *ConstDeclStmt:
		x.Value = rw(x.Value)
	case *IfStmt:
		x.Cond = rw(x.Cond)
		x.Then = RewriteBlock(x.Then, fs, fe)
		if x.Else != nil {
			repl := RewriteStmt(x.Else, fs, fe)
			switch len(repl) {
			case 0:
				x.Else = nil
			case 1:
				x.Else = repl[0]
			default:
				x.Else = &BlockStmt{Stmts: repl}
			}
		}
	case *BlockStmt:
		b := RewriteBlock(x, fs, fe)
		if fs != nil {
			return fs(b)
		}
		return []Stmt{b}
	case *CallStmt:
		x.Call = rw(x.Call).(*CallExpr)
	case *ReturnStmt:
		x.Value = rw(x.Value)
	case *ExitStmt, *EmptyStmt:
	case *SwitchStmt:
		x.Tag = rw(x.Tag)
		for i := range x.Cases {
			for j, l := range x.Cases[i].Labels {
				x.Cases[i].Labels[j] = rw(l)
			}
			x.Cases[i].Body = RewriteBlock(x.Cases[i].Body, fs, fe)
		}
	default:
		panic(fmt.Sprintf("ast.RewriteStmt: unknown statement %T", s))
	}
	if fs != nil {
		return fs(s)
	}
	return []Stmt{s}
}

// RewriteBlock applies RewriteStmt to every statement of a block, splicing
// replacement slices in place. Nil-safe.
func RewriteBlock(b *BlockStmt, fs func(Stmt) []Stmt, fe func(Expr) Expr) *BlockStmt {
	if b == nil {
		return nil
	}
	var out []Stmt
	for _, s := range b.Stmts {
		// Avoid infinite recursion: nested blocks are handled by the
		// BlockStmt case of RewriteStmt which recurses via RewriteBlock.
		out = append(out, RewriteStmt(s, fs, fe)...)
	}
	b.Stmts = out
	return b
}

// RewriteControl rewrites a control's apply block and every action and
// function body in place.
func RewriteControl(c *ControlDecl, fs func(Stmt) []Stmt, fe func(Expr) Expr) {
	for _, l := range c.Locals {
		switch d := l.(type) {
		case *ActionDecl:
			d.Body = RewriteBlock(d.Body, fs, fe)
		case *FunctionDecl:
			d.Body = RewriteBlock(d.Body, fs, fe)
		case *VarDecl:
			if fe != nil && d.Init != nil {
				d.Init = RewriteExpr(d.Init, fe)
			}
		case *TableDecl:
			if fe != nil {
				for i := range d.Keys {
					d.Keys[i].Expr = RewriteExpr(d.Keys[i].Expr, fe)
				}
			}
		}
	}
	c.Apply = RewriteBlock(c.Apply, fs, fe)
}

// ContainsCall reports whether the expression contains any call.
func ContainsCall(e Expr) bool {
	found := false
	Inspect(e, func(x Expr) bool {
		if _, ok := x.(*CallExpr); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// FreeIdents collects the names referenced by an expression, excluding
// member names and call targets' member components.
func FreeIdents(e Expr, into map[string]bool) {
	Inspect(e, func(x Expr) bool {
		if id, ok := x.(*Ident); ok {
			into[id.Name] = true
		}
		return true
	})
}
