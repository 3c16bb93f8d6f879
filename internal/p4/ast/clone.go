package ast

import "fmt"

// CloneProgram deep-copies a program, type objects included, so nothing
// done to the copy shows in the original. The compiler clones its input
// once for the initial snapshot and once more as the working program its
// passes rewrite in place.
func CloneProgram(p *Program) *Program {
	out := &Program{Decls: make([]Decl, len(p.Decls))}
	for i, d := range p.Decls {
		out.Decls[i] = CloneDecl(d)
	}
	return out
}

// CloneDecl deep-copies a declaration.
func CloneDecl(d Decl) Decl {
	switch d := d.(type) {
	case nil:
		return nil
	case *HeaderDecl:
		return &HeaderDecl{DeclPos: d.DeclPos, Name: d.Name, Fields: cloneFields(d.Fields)}
	case *StructDecl:
		return &StructDecl{DeclPos: d.DeclPos, Name: d.Name, Fields: cloneFields(d.Fields)}
	case *TypedefDecl:
		return &TypedefDecl{DeclPos: d.DeclPos, Name: d.Name, Type: CloneType(d.Type)}
	case *ConstDecl:
		return &ConstDecl{DeclPos: d.DeclPos, Name: d.Name, Type: CloneType(d.Type), Value: CloneExpr(d.Value)}
	case *ActionDecl:
		return &ActionDecl{DeclPos: d.DeclPos, Name: d.Name, Params: cloneParams(d.Params), Body: CloneBlock(d.Body)}
	case *FunctionDecl:
		return &FunctionDecl{DeclPos: d.DeclPos, Name: d.Name, Return: CloneType(d.Return),
			Params: cloneParams(d.Params), Body: CloneBlock(d.Body)}
	case *TableDecl:
		t := &TableDecl{DeclPos: d.DeclPos, Name: d.Name}
		for _, k := range d.Keys {
			t.Keys = append(t.Keys, TableKey{Expr: CloneExpr(k.Expr), Match: k.Match})
		}
		for _, a := range d.Actions {
			t.Actions = append(t.Actions, cloneActionRef(a))
		}
		if d.Default != nil {
			ref := cloneActionRef(*d.Default)
			t.Default = &ref
		}
		return t
	case *VarDecl:
		return &VarDecl{DeclPos: d.DeclPos, Name: d.Name, Type: CloneType(d.Type), Init: CloneExpr(d.Init)}
	case *ControlDecl:
		c := &ControlDecl{DeclPos: d.DeclPos, Name: d.Name, Params: cloneParams(d.Params), Apply: CloneBlock(d.Apply)}
		for _, l := range d.Locals {
			c.Locals = append(c.Locals, CloneDecl(l))
		}
		return c
	case *ParserDecl:
		pd := &ParserDecl{DeclPos: d.DeclPos, Name: d.Name, Params: cloneParams(d.Params)}
		for _, s := range d.States {
			ns := ParserState{DeclPos: s.DeclPos, Name: s.Name, Trans: cloneTransition(s.Trans)}
			for _, st := range s.Stmts {
				ns.Stmts = append(ns.Stmts, CloneStmt(st))
			}
			pd.States = append(pd.States, ns)
		}
		return pd
	case *Instantiation:
		args := make([]string, len(d.Args))
		copy(args, d.Args)
		return &Instantiation{DeclPos: d.DeclPos, Package: d.Package, Args: args, Name: d.Name}
	default:
		panic(fmt.Sprintf("ast.CloneDecl: unknown declaration %T", d))
	}
}

func cloneActionRef(a ActionRef) ActionRef {
	out := ActionRef{Name: a.Name}
	for _, arg := range a.Args {
		out.Args = append(out.Args, CloneExpr(arg))
	}
	return out
}

func cloneParams(ps []Param) []Param {
	out := make([]Param, len(ps))
	for i, p := range ps {
		out[i] = Param{Dir: p.Dir, Name: p.Name, Type: CloneType(p.Type)}
	}
	return out
}

func cloneTransition(t Transition) Transition {
	switch t := t.(type) {
	case nil:
		return nil
	case *TransDirect:
		return &TransDirect{Next: t.Next}
	case *TransSelect:
		ns := &TransSelect{Expr: CloneExpr(t.Expr)}
		for _, c := range t.Cases {
			nc := SelectCase{Next: c.Next}
			if c.Value != nil {
				nc.Value = &IntLit{LitPos: c.Value.LitPos, Width: c.Value.Width, Val: c.Value.Val}
			}
			ns.Cases = append(ns.Cases, nc)
		}
		return ns
	default:
		panic(fmt.Sprintf("ast.cloneTransition: unknown transition %T", t))
	}
}

// CloneBlock deep-copies a block statement (nil-safe).
func CloneBlock(b *BlockStmt) *BlockStmt {
	if b == nil {
		return nil
	}
	out := &BlockStmt{LBrace: b.LBrace, Stmts: make([]Stmt, len(b.Stmts))}
	for i, s := range b.Stmts {
		out.Stmts[i] = CloneStmt(s)
	}
	return out
}

// CloneStmt deep-copies a statement (nil-safe).
func CloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case nil:
		return nil
	case *AssignStmt:
		return &AssignStmt{LHS: CloneExpr(s.LHS), RHS: CloneExpr(s.RHS)}
	case *VarDeclStmt:
		return &VarDeclStmt{DeclPos: s.DeclPos, Name: s.Name, Type: CloneType(s.Type), Init: CloneExpr(s.Init)}
	case *ConstDeclStmt:
		return &ConstDeclStmt{DeclPos: s.DeclPos, Name: s.Name, Type: CloneType(s.Type), Value: CloneExpr(s.Value)}
	case *IfStmt:
		return &IfStmt{IfPos: s.IfPos, Cond: CloneExpr(s.Cond), Then: CloneBlock(s.Then), Else: CloneStmt(s.Else)}
	case *BlockStmt:
		return CloneBlock(s)
	case *CallStmt:
		return &CallStmt{Call: CloneExpr(s.Call).(*CallExpr)}
	case *ReturnStmt:
		return &ReturnStmt{RetPos: s.RetPos, Value: CloneExpr(s.Value)}
	case *ExitStmt:
		return &ExitStmt{ExitPos: s.ExitPos}
	case *EmptyStmt:
		return &EmptyStmt{SemiPos: s.SemiPos}
	case *SwitchStmt:
		sw := &SwitchStmt{SwitchPos: s.SwitchPos, Tag: CloneExpr(s.Tag)}
		for _, c := range s.Cases {
			nc := SwitchCase{Body: CloneBlock(c.Body)}
			for _, l := range c.Labels {
				nc.Labels = append(nc.Labels, CloneExpr(l))
			}
			sw.Cases = append(sw.Cases, nc)
		}
		return sw
	default:
		panic(fmt.Sprintf("ast.CloneStmt: unknown statement %T", s))
	}
}

// CloneExpr deep-copies an expression (nil-safe).
func CloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *Ident:
		return &Ident{NamePos: e.NamePos, Name: e.Name}
	case *IntLit:
		return &IntLit{LitPos: e.LitPos, Width: e.Width, Val: e.Val}
	case *BoolLit:
		return &BoolLit{LitPos: e.LitPos, Val: e.Val}
	case *UnaryExpr:
		return &UnaryExpr{OpPos: e.OpPos, Op: e.Op, X: CloneExpr(e.X)}
	case *BinaryExpr:
		return &BinaryExpr{OpPos: e.OpPos, Op: e.Op, X: CloneExpr(e.X), Y: CloneExpr(e.Y)}
	case *MuxExpr:
		return &MuxExpr{QPos: e.QPos, Cond: CloneExpr(e.Cond), Then: CloneExpr(e.Then), Else: CloneExpr(e.Else)}
	case *CastExpr:
		return &CastExpr{CastPos: e.CastPos, To: CloneType(e.To), X: CloneExpr(e.X)}
	case *MemberExpr:
		return &MemberExpr{X: CloneExpr(e.X), Member: e.Member}
	case *SliceExpr:
		return &SliceExpr{X: CloneExpr(e.X), Hi: e.Hi, Lo: e.Lo}
	case *CallExpr:
		c := &CallExpr{Func: CloneExpr(e.Func)}
		for _, a := range e.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	default:
		panic(fmt.Sprintf("ast.CloneExpr: unknown expression %T", e))
	}
}
