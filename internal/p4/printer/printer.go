// Package printer renders AST programs back to P4 source text. It is the
// analogue of P4C's ToP4 module (§5.2): the compiler driver prints the
// program after every pass and re-parses it, so printing must round-trip
// through the parser — a property-tested invariant of this repository.
//
// The printer also provides Fingerprint, the 64-bit FNV-1a hash of the
// printed form, used to skip pass outputs identical to their predecessor,
// exactly as the paper describes ("ignore any emitted intermediate program
// that has a hash identical to its predecessor"). Fingerprint feeds the
// printer's bytes straight into the hash, so it never builds the text; it
// equals FNV-1a over Print's output. Hash extends the same streaming to
// callers that hash printed declarations.
package printer

import (
	"fmt"
	"strconv"
	"strings"

	"gauntlet/internal/p4/ast"
)

// Print renders a complete program as P4 source text.
func Print(p *ast.Program) string {
	var pr pr
	pr.program(p)
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

// Fingerprint returns the 64-bit FNV-1a hash of Print(p), used to detect
// no-op compiler passes. It hashes the bytes as the printer produces
// them instead of building the text.
func Fingerprint(p *ast.Program) uint64 {
	pr := pr{hashing: true, h: NewHash()}
	pr.program(p)
	return pr.h.Sum64()
}

// FNV-1a parameters (hash/fnv's New64a).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash is a running 64-bit FNV-1a hash: fed the same bytes, it sums to
// what hash/fnv's New64a sums to. Unlike hash/fnv it takes strings and
// printed declarations without copying them into a byte slice first.
type Hash struct{ sum uint64 }

// NewHash returns the hash of no bytes.
func NewHash() Hash { return Hash{offset64} }

// Write adds b to the hash.
func (h *Hash) Write(b []byte) { h.sum = fnv1a(h.sum, b) }

// WriteString adds s to the hash.
func (h *Hash) WriteString(s string) { h.sum = fnv1a(h.sum, s) }

// WriteDecl adds PrintDecl(d)'s bytes to the hash without building them.
func (h *Hash) WriteDecl(d ast.Decl) {
	pr := pr{hashing: true, h: *h}
	pr.decl(d)
	*h = pr.h
}

// Sum64 returns the hash of everything written so far.
func (h Hash) Sum64() uint64 { return h.sum }

func fnv1a[T string | []byte](sum uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		sum ^= uint64(b[i])
		sum *= prime64
	}
	return sum
}

// pr is the printer. It appends to b, or, when hashing, feeds every byte
// into h instead; all output goes through ws and wb, so both sinks see
// the same bytes.
type pr struct {
	b       strings.Builder
	indent  int
	hashing bool
	h       Hash
}

func (p *pr) program(prog *ast.Program) {
	for i, d := range prog.Decls {
		if i > 0 {
			p.nl()
		}
		p.decl(d)
	}
}

// newline is a line break followed by sixteen levels of indentation; nl
// writes a prefix of it.
const newline = "\n" +
	"                                " +
	"                                "

func (p *pr) nl() {
	if n := 1 + 4*p.indent; n <= len(newline) {
		p.ws(newline[:n])
		return
	}
	p.ws("\n")
	for i := 0; i < p.indent; i++ {
		p.ws("    ")
	}
}

func (p *pr) ws(parts ...string) {
	for _, s := range parts {
		if p.hashing {
			p.h.WriteString(s)
		} else {
			p.b.WriteString(s)
		}
	}
}

func (p *pr) wb(b []byte) {
	if p.hashing {
		p.h.Write(b)
		return
	}
	p.b.Write(b)
}

// int writes v in decimal, as fmt's %d does.
func (p *pr) int(v int) {
	var buf [20]byte
	p.wb(strconv.AppendInt(buf[:0], int64(v), 10))
}

// uint writes v in decimal, as fmt's %d does.
func (p *pr) uint(v uint64) {
	var buf [20]byte
	p.wb(strconv.AppendUint(buf[:0], v, 10))
}

// typ writes t as t.String() renders it, without formatting bit<W>
// through fmt.
func (p *pr) typ(t ast.Type) {
	if b, ok := t.(*ast.BitType); ok {
		p.ws("bit<")
		p.int(b.Width)
		p.ws(">")
		return
	}
	p.ws(t.String())
}

func (p *pr) decl(d ast.Decl) {
	switch d := d.(type) {
	case *ast.HeaderDecl:
		p.ws("header ", d.Name, " {")
		p.fields(d.Fields)
		p.ws("}")
		p.nl()
	case *ast.StructDecl:
		p.ws("struct ", d.Name, " {")
		p.fields(d.Fields)
		p.ws("}")
		p.nl()
	case *ast.TypedefDecl:
		p.ws("typedef ")
		p.typ(d.Type)
		p.ws(" ", d.Name, ";")
		p.nl()
	case *ast.ConstDecl:
		p.ws("const ")
		p.typ(d.Type)
		p.ws(" ", d.Name, " = ")
		p.expr(d.Value, precLowest)
		p.ws(";")
		p.nl()
	case *ast.ActionDecl:
		p.ws("action ", d.Name, "(")
		p.params(d.Params)
		p.ws(") ")
		p.block(d.Body)
		p.nl()
	case *ast.FunctionDecl:
		p.typ(d.Return)
		p.ws(" ", d.Name, "(")
		p.params(d.Params)
		p.ws(") ")
		p.block(d.Body)
		p.nl()
	case *ast.TableDecl:
		p.table(d)
	case *ast.VarDecl:
		p.typ(d.Type)
		p.ws(" ", d.Name)
		if d.Init != nil {
			p.ws(" = ")
			p.expr(d.Init, precLowest)
		}
		p.ws(";")
		p.nl()
	case *ast.ControlDecl:
		p.ws("control ", d.Name, "(")
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
		p.ws("parser ", d.Name, "(")
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
		p.ws(d.Package, "(")
		for i, a := range d.Args {
			if i > 0 {
				p.ws(", ")
			}
			p.ws(a)
		}
		p.ws(") ", d.Name, ";")
		p.nl()
	default:
		panic(fmt.Sprintf("printer: unknown declaration %T", d))
	}
}

func (p *pr) fields(fs []ast.Field) {
	p.indent++
	for _, f := range fs {
		p.nl()
		p.typ(f.Type)
		p.ws(" ", f.Name, ";")
	}
	p.indent--
	p.nl()
}

func (p *pr) params(ps []ast.Param) {
	for i, prm := range ps {
		if i > 0 {
			p.ws(", ")
		}
		if d := prm.Dir.String(); d != "" {
			p.ws(d, " ")
		}
		p.typ(prm.Type)
		p.ws(" ", prm.Name)
	}
}

func (p *pr) table(d *ast.TableDecl) {
	p.ws("table ", d.Name, " {")
	p.indent++
	if len(d.Keys) > 0 {
		p.nl()
		p.ws("key = {")
		p.indent++
		for _, k := range d.Keys {
			p.nl()
			p.expr(k.Expr, precLowest)
			p.ws(" : ", k.Match.String(), ";")
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
		p.ws(a.Name, ";")
	}
	p.indent--
	p.nl()
	p.ws("}")
	if d.Default != nil {
		p.nl()
		p.ws("default_action = ", d.Default.Name, "(")
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
	p.ws("state ", s.Name, " {")
	p.indent++
	for _, st := range s.Stmts {
		p.nl()
		p.stmt(st)
	}
	if s.Trans != nil {
		p.nl()
		switch t := s.Trans.(type) {
		case *ast.TransDirect:
			p.ws("transition ", t.Next, ";")
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
				p.ws(" : ", c.Next, ";")
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
		p.typ(s.Type)
		p.ws(" ", s.Name)
		if s.Init != nil {
			p.ws(" = ")
			p.expr(s.Init, precLowest)
		}
		p.ws(";")
	case *ast.ConstDeclStmt:
		p.ws("const ")
		p.typ(s.Type)
		p.ws(" ", s.Name, " = ")
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
			p.int(e.Width)
			p.ws("w")
		}
		p.uint(e.Val)
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
			p.ws(" ", e.Op.String(), " ")
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
			p.ws("(")
			p.typ(e.To)
			p.ws(") ")
			p.expr(e.X, precUnary)
		})
	case *ast.MemberExpr:
		p.expr(e.X, precPrim)
		p.ws(".", e.Member)
	case *ast.SliceExpr:
		p.expr(e.X, precPrim)
		p.ws("[")
		p.int(e.Hi)
		p.ws(":")
		p.int(e.Lo)
		p.ws("]")
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
