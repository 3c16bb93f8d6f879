// Package printer renders AST programs back to P4 source text. It is the
// analogue of P4C's ToP4 module (§5.2): the compiler driver prints the
// program after every pass and re-parses it, so printing must round-trip
// through the parser — a property-tested invariant of this repository.
//
// The printer also provides Fingerprint, a structural hash of the printed
// form used to skip pass outputs identical to their predecessor, exactly as
// the paper describes ("ignore any emitted intermediate program that has a
// hash identical to its predecessor").
package printer

import (
	"fmt"
	"hash/fnv"
	"strings"

	"gauntlet/internal/p4/ast"
)

// Print renders a complete program as P4 source text.
func Print(p *ast.Program) string {
	var pr pr
	for i, d := range p.Decls {
		if i > 0 {
			pr.nl()
		}
		pr.decl(d)
	}
	return pr.b.String()
}

// PrintDecl renders a single top-level declaration.
func PrintDecl(d ast.Decl) string {
	var pr pr
	pr.decl(d)
	return pr.b.String()
}

// PrintExpr renders a single expression.
func PrintExpr(e ast.Expr) string {
	var pr pr
	pr.expr(e, precLowest)
	return pr.b.String()
}

// Fingerprint returns a 64-bit FNV-1a hash of the printed program, used to
// detect no-op compiler passes.
func Fingerprint(p *ast.Program) uint64 {
	h := fnv.New64a()
	h.Write([]byte(Print(p)))
	return h.Sum64()
}

type pr struct {
	b      strings.Builder
	indent int
}

func (p *pr) nl() {
	p.b.WriteByte('\n')
	for i := 0; i < p.indent; i++ {
		p.b.WriteString("    ")
	}
}

func (p *pr) ws(s string) { p.b.WriteString(s) }

func (p *pr) decl(d ast.Decl) {
	switch d := d.(type) {
	case *ast.HeaderDecl:
		p.ws("header " + d.Name + " {")
		p.fields(d.Fields)
		p.ws("}")
		p.nl()
	case *ast.StructDecl:
		p.ws("struct " + d.Name + " {")
		p.fields(d.Fields)
		p.ws("}")
		p.nl()
	case *ast.TypedefDecl:
		p.ws("typedef " + d.Type.String() + " " + d.Name + ";")
		p.nl()
	case *ast.ConstDecl:
		p.ws("const " + d.Type.String() + " " + d.Name + " = ")
		p.expr(d.Value, precLowest)
		p.ws(";")
		p.nl()
	case *ast.ActionDecl:
		p.ws("action " + d.Name + "(")
		p.params(d.Params)
		p.ws(") ")
		p.block(d.Body)
		p.nl()
	case *ast.FunctionDecl:
		p.ws(d.Return.String() + " " + d.Name + "(")
		p.params(d.Params)
		p.ws(") ")
		p.block(d.Body)
		p.nl()
	case *ast.TableDecl:
		p.table(d)
	case *ast.VarDecl:
		p.ws(d.Type.String() + " " + d.Name)
		if d.Init != nil {
			p.ws(" = ")
			p.expr(d.Init, precLowest)
		}
		p.ws(";")
		p.nl()
	case *ast.ControlDecl:
		p.ws("control " + d.Name + "(")
		p.params(d.Params)
		p.ws(") {")
		p.indent++
		for _, l := range d.Locals {
			p.nl()
			p.decl(l)
		}
		p.nl()
		p.ws("apply ")
		p.block(d.Apply)
		p.indent--
		p.nl()
		p.ws("}")
		p.nl()
	case *ast.ParserDecl:
		p.ws("parser " + d.Name + "(")
		p.params(d.Params)
		p.ws(") {")
		p.indent++
		for i := range d.States {
			p.nl()
			p.state(&d.States[i])
		}
		p.indent--
		p.nl()
		p.ws("}")
		p.nl()
	case *ast.Instantiation:
		p.ws(d.Package + "(" + strings.Join(d.Args, ", ") + ") " + d.Name + ";")
		p.nl()
	default:
		panic(fmt.Sprintf("printer: unknown declaration %T", d))
	}
}

func (p *pr) fields(fs []ast.Field) {
	p.indent++
	for _, f := range fs {
		p.nl()
		p.ws(f.Type.String() + " " + f.Name + ";")
	}
	p.indent--
	p.nl()
}

func (p *pr) params(ps []ast.Param) {
	for i, prm := range ps {
		if i > 0 {
			p.ws(", ")
		}
		p.ws(prm.String())
	}
}

func (p *pr) table(d *ast.TableDecl) {
	p.ws("table " + d.Name + " {")
	p.indent++
	if len(d.Keys) > 0 {
		p.nl()
		p.ws("key = {")
		p.indent++
		for _, k := range d.Keys {
			p.nl()
			p.expr(k.Expr, precLowest)
			p.ws(" : " + k.Match.String() + ";")
		}
		p.indent--
		p.nl()
		p.ws("}")
	}
	p.nl()
	p.ws("actions = {")
	p.indent++
	for _, a := range d.Actions {
		p.nl()
		p.ws(a.Name + ";")
	}
	p.indent--
	p.nl()
	p.ws("}")
	if d.Default != nil {
		p.nl()
		p.ws("default_action = " + d.Default.Name + "(")
		for i, a := range d.Default.Args {
			if i > 0 {
				p.ws(", ")
			}
			p.expr(a, precLowest)
		}
		p.ws(");")
	}
	p.indent--
	p.nl()
	p.ws("}")
	p.nl()
}

func (p *pr) state(s *ast.ParserState) {
	p.ws("state " + s.Name + " {")
	p.indent++
	for _, st := range s.Stmts {
		p.nl()
		p.stmt(st)
	}
	if s.Trans != nil {
		p.nl()
		switch t := s.Trans.(type) {
		case *ast.TransDirect:
			p.ws("transition " + t.Next + ";")
		case *ast.TransSelect:
			p.ws("transition select(")
			p.expr(t.Expr, precLowest)
			p.ws(") {")
			p.indent++
			for _, c := range t.Cases {
				p.nl()
				if c.Value == nil {
					p.ws("default")
				} else {
					p.expr(c.Value, precLowest)
				}
				p.ws(" : " + c.Next + ";")
			}
			p.indent--
			p.nl()
			p.ws("}")
		}
	}
	p.indent--
	p.nl()
	p.ws("}")
}

func (p *pr) block(b *ast.BlockStmt) {
	if b == nil {
		p.ws("{ }")
		return
	}
	p.ws("{")
	p.indent++
	for _, s := range b.Stmts {
		p.nl()
		p.stmt(s)
	}
	p.indent--
	p.nl()
	p.ws("}")
}

func (p *pr) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		p.expr(s.LHS, precLowest)
		p.ws(" = ")
		p.expr(s.RHS, precLowest)
		p.ws(";")
	case *ast.VarDeclStmt:
		p.ws(s.Type.String() + " " + s.Name)
		if s.Init != nil {
			p.ws(" = ")
			p.expr(s.Init, precLowest)
		}
		p.ws(";")
	case *ast.ConstDeclStmt:
		p.ws("const " + s.Type.String() + " " + s.Name + " = ")
		p.expr(s.Value, precLowest)
		p.ws(";")
	case *ast.IfStmt:
		p.ws("if (")
		p.expr(s.Cond, precLowest)
		p.ws(") ")
		p.block(s.Then)
		if s.Else != nil {
			p.ws(" else ")
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				p.block(e)
			case *ast.IfStmt:
				p.stmt(e)
			default:
				p.block(&ast.BlockStmt{Stmts: []ast.Stmt{e}})
			}
		}
	case *ast.BlockStmt:
		p.block(s)
	case *ast.CallStmt:
		p.expr(s.Call, precLowest)
		p.ws(";")
	case *ast.ReturnStmt:
		p.ws("return")
		if s.Value != nil {
			p.ws(" ")
			p.expr(s.Value, precLowest)
		}
		p.ws(";")
	case *ast.ExitStmt:
		p.ws("exit;")
	case *ast.EmptyStmt:
		p.ws(";")
	case *ast.SwitchStmt:
		p.ws("switch (")
		p.expr(s.Tag, precLowest)
		p.ws(") {")
		p.indent++
		for _, c := range s.Cases {
			p.nl()
			if c.Labels == nil {
				p.ws("default: ")
			} else {
				for i, l := range c.Labels {
					if i > 0 {
						p.nl()
					}
					p.expr(l, precLowest)
					p.ws(": ")
				}
			}
			p.block(c.Body)
		}
		p.indent--
		p.nl()
		p.ws("}")
	default:
		panic(fmt.Sprintf("printer: unknown statement %T", s))
	}
}

// Operator precedence levels; larger binds tighter. The parser mirrors this
// table exactly.
const (
	precLowest = iota
	precMux    // ?:
	precLOr    // ||
	precLAnd   // &&
	precBitOr  // |
	precBitXor // ^
	precBitAnd // &
	precEq     // == !=
	precRel    // < <= > >=
	precConcat // ++
	precShift  // << >>
	precAdd    // + - |+| |-|
	precMul    // *
	precUnary  // ! ~ - casts
	precPrim   // literals, idents, member, slice, call
)

// BinaryPrec returns the precedence level of a binary operator.
func BinaryPrec(op ast.BinaryOp) int {
	switch op {
	case ast.OpLOr:
		return precLOr
	case ast.OpLAnd:
		return precLAnd
	case ast.OpBitOr:
		return precBitOr
	case ast.OpBitXor:
		return precBitXor
	case ast.OpBitAnd:
		return precBitAnd
	case ast.OpEq, ast.OpNe:
		return precEq
	case ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		return precRel
	case ast.OpConcat:
		return precConcat
	case ast.OpShl, ast.OpShr:
		return precShift
	case ast.OpAdd, ast.OpSub, ast.OpSatAdd, ast.OpSatSub:
		return precAdd
	case ast.OpMul:
		return precMul
	default:
		panic(fmt.Sprintf("printer: unknown binary operator %v", op))
	}
}

// expr prints e, parenthesizing when its precedence is below the context.
func (p *pr) expr(e ast.Expr, ctx int) {
	switch e := e.(type) {
	case *ast.Ident:
		p.ws(e.Name)
	case *ast.IntLit:
		if e.Width > 0 {
			fmt.Fprintf(&p.b, "%dw%d", e.Width, e.Val)
		} else {
			fmt.Fprintf(&p.b, "%d", e.Val)
		}
	case *ast.BoolLit:
		if e.Val {
			p.ws("true")
		} else {
			p.ws("false")
		}
	case *ast.UnaryExpr:
		p.paren(ctx > precUnary, func() {
			p.ws(e.Op.String())
			p.expr(e.X, precUnary)
		})
	case *ast.BinaryExpr:
		prec := BinaryPrec(e.Op)
		p.paren(ctx > prec, func() {
			// Left-associative: left child at prec, right child one tighter.
			p.expr(e.X, prec)
			p.ws(" " + e.Op.String() + " ")
			p.expr(e.Y, prec+1)
		})
	case *ast.MuxExpr:
		p.paren(ctx > precMux, func() {
			p.expr(e.Cond, precMux+1)
			p.ws(" ? ")
			p.expr(e.Then, precMux+1)
			p.ws(" : ")
			p.expr(e.Else, precMux)
		})
	case *ast.CastExpr:
		p.paren(ctx > precUnary, func() {
			p.ws("(" + e.To.String() + ") ")
			p.expr(e.X, precUnary)
		})
	case *ast.MemberExpr:
		p.expr(e.X, precPrim)
		p.ws("." + e.Member)
	case *ast.SliceExpr:
		p.expr(e.X, precPrim)
		fmt.Fprintf(&p.b, "[%d:%d]", e.Hi, e.Lo)
	case *ast.CallExpr:
		p.expr(e.Func, precPrim)
		p.ws("(")
		for i, a := range e.Args {
			if i > 0 {
				p.ws(", ")
			}
			p.expr(a, precLowest)
		}
		p.ws(")")
	default:
		panic(fmt.Sprintf("printer: unknown expression %T", e))
	}
}

func (p *pr) paren(need bool, f func()) {
	if need {
		p.ws("(")
		f()
		p.ws(")")
		return
	}
	f()
}
