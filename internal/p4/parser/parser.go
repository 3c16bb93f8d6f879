// Package parser implements a recursive-descent parser for the P4₁₆ subset.
//
// The compiler driver re-parses the program emitted after every pass
// (§5.2 of the paper): a parse failure on emitted text is an "invalid
// transformation" bug in either the printer or the preceding pass (§7.2).
// The grammar accepted here is exactly the language produced by the printer
// package; print∘parse round-tripping is property-tested.
package parser

import (
	"fmt"

	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/lexer"
	"gauntlet/internal/p4/token"
)

// Error is a syntax error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: syntax error: %s", e.Pos, e.Msg) }

// Parse parses a complete program from source text.
func Parse(src string) (*ast.Program, error) {
	p := newParser(src)
	prog, err := p.program()
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseExpr parses a single expression (used by tests and tools).
func ParseExpr(src string) (ast.Expr, error) {
	p := newParser(src)
	e, err := p.expr()
	if err == nil && p.peek().Kind != token.EOF {
		err = p.errorf("unexpected %s after expression", p.peek())
	}
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return e, nil
}

// parser pulls tokens from the lexer on demand. The grammar looks at most
// two tokens past the current one, so a four-slot ring holds every token
// the parser can see: ring[head] is the current token and the n buffered
// ones follow it.
type parser struct {
	lex  *lexer.Lexer
	ring [4]token.Token
	head int
	n    int
}

func newParser(src string) *parser { return &parser{lex: lexer.New(src)} }

// finish settles a parse's error: a lexical error anywhere in the source
// wins over the syntax error err, so the rest of the source is scanned
// first when the parse stopped early. The lexer returns EOF again once it
// has reached the end, so scanning on is safe whatever was buffered.
func (p *parser) finish(err error) error {
	if err != nil {
		for p.lex.Next().Kind != token.EOF {
		}
	}
	if lerrs := p.lex.Errors(); len(lerrs) > 0 {
		return &Error{Pos: lerrs[0].Pos, Msg: lerrs[0].Msg}
	}
	return err
}

func (p *parser) peek() token.Token { return p.peekN(0) }

// peekN returns the token n places past the current one, n < len(ring);
// past the end of the source every token is EOF.
func (p *parser) peekN(n int) token.Token {
	for p.n <= n {
		p.ring[(p.head+p.n)&3] = p.lex.Next()
		p.n++
	}
	return p.ring[(p.head+n)&3]
}

func (p *parser) next() token.Token {
	t := p.peek()
	if t.Kind != token.EOF {
		p.head = (p.head + 1) & 3
		p.n--
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.peek().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) (token.Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return token.Token{}, p.errorf("expected %s, found %s", k, p.peek())
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) program() (*ast.Program, error) {
	prog := &ast.Program{}
	for !p.at(token.EOF) {
		d, err := p.topDecl()
		if err != nil {
			return nil, err
		}
		prog.Decls = append(prog.Decls, d)
	}
	return prog, nil
}

func (p *parser) topDecl() (ast.Decl, error) {
	switch p.peek().Kind {
	case token.KwHeader:
		return p.headerDecl()
	case token.KwStruct:
		return p.structDecl()
	case token.KwTypedef:
		return p.typedefDecl()
	case token.KwConst:
		return p.constDecl()
	case token.KwControl:
		return p.controlDecl()
	case token.KwParser:
		return p.parserDecl()
	case token.KwAction:
		return p.actionDecl()
	case token.KwBit, token.KwBool, token.KwVoid:
		return p.functionDecl()
	case token.IDENT:
		// Either "Pkg(args) main;" or "RetType name(params) {...}".
		if p.peekN(1).Kind == token.LParen {
			return p.instantiation()
		}
		if p.peekN(1).Kind == token.IDENT && p.peekN(2).Kind == token.LParen {
			return p.functionDecl()
		}
		return nil, p.errorf("unexpected %s at top level", p.peek())
	default:
		return nil, p.errorf("unexpected %s at top level", p.peek())
	}
}

func (p *parser) headerDecl() (ast.Decl, error) {
	kw := p.next()
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	fields, err := p.fieldList()
	if err != nil {
		return nil, err
	}
	return &ast.HeaderDecl{DeclPos: kw.Pos, Name: name.Lit, Fields: fields}, nil
}

func (p *parser) structDecl() (ast.Decl, error) {
	kw := p.next()
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	fields, err := p.fieldList()
	if err != nil {
		return nil, err
	}
	return &ast.StructDecl{DeclPos: kw.Pos, Name: name.Lit, Fields: fields}, nil
}

func (p *parser) fieldList() ([]ast.Field, error) {
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	var fields []ast.Field
	for !p.at(token.RBrace) {
		t, err := p.typeRef()
		if err != nil {
			return nil, err
		}
		name, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semicolon); err != nil {
			return nil, err
		}
		fields = append(fields, ast.Field{Name: name.Lit, Type: t})
	}
	p.next() // }
	return fields, nil
}

func (p *parser) typedefDecl() (ast.Decl, error) {
	kw := p.next()
	t, err := p.typeRef()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semicolon); err != nil {
		return nil, err
	}
	return &ast.TypedefDecl{DeclPos: kw.Pos, Name: name.Lit, Type: t}, nil
}

func (p *parser) constDecl() (ast.Decl, error) {
	kw := p.next()
	t, err := p.typeRef()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Assign); err != nil {
		return nil, err
	}
	v, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semicolon); err != nil {
		return nil, err
	}
	return &ast.ConstDecl{DeclPos: kw.Pos, Name: name.Lit, Type: t, Value: v}, nil
}

// typeRef parses bit<N>, bool, void, or a named type.
func (p *parser) typeRef() (ast.Type, error) {
	switch p.peek().Kind {
	case token.KwBit:
		p.next()
		if _, err := p.expect(token.Lt); err != nil {
			return nil, err
		}
		w, err := p.expect(token.INTLIT)
		if err != nil {
			return nil, err
		}
		width, val, perr := lexer.ParseIntLit(w.Lit)
		if perr != nil || width != 0 {
			return nil, p.errorf("bad bit width %q", w.Lit)
		}
		if _, err := p.expect(token.Gt); err != nil {
			return nil, err
		}
		return &ast.BitType{Width: int(val)}, nil
	case token.KwBool:
		p.next()
		return &ast.BoolType{}, nil
	case token.KwVoid:
		p.next()
		return &ast.VoidType{}, nil
	case token.KwPacket:
		p.next()
		return &ast.PacketType{}, nil
	case token.IDENT:
		t := p.next()
		return &ast.NamedType{Name: t.Lit}, nil
	default:
		return nil, p.errorf("expected type, found %s", p.peek())
	}
}

func (p *parser) paramList() ([]ast.Param, error) {
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	var params []ast.Param
	for !p.at(token.RParen) {
		if len(params) > 0 {
			if _, err := p.expect(token.Comma); err != nil {
				return nil, err
			}
		}
		dir := ast.DirNone
		switch p.peek().Kind {
		case token.KwIn:
			p.next()
			dir = ast.DirIn
		case token.KwOut:
			p.next()
			dir = ast.DirOut
		case token.KwInout:
			p.next()
			dir = ast.DirInOut
		}
		t, err := p.typeRef()
		if err != nil {
			return nil, err
		}
		name, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		params = append(params, ast.Param{Dir: dir, Name: name.Lit, Type: t})
	}
	p.next() // )
	return params, nil
}

func (p *parser) actionDecl() (*ast.ActionDecl, error) {
	kw := p.next()
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	params, err := p.paramList()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &ast.ActionDecl{DeclPos: kw.Pos, Name: name.Lit, Params: params, Body: body}, nil
}

func (p *parser) functionDecl() (*ast.FunctionDecl, error) {
	pos := p.peek().Pos
	ret, err := p.typeRef()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	params, err := p.paramList()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &ast.FunctionDecl{DeclPos: pos, Name: name.Lit, Return: ret, Params: params, Body: body}, nil
}

func (p *parser) instantiation() (ast.Decl, error) {
	pkg := p.next()
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	var args []string
	for !p.at(token.RParen) {
		if len(args) > 0 {
			if _, err := p.expect(token.Comma); err != nil {
				return nil, err
			}
		}
		a, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		args = append(args, a.Lit)
	}
	p.next() // )
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semicolon); err != nil {
		return nil, err
	}
	return &ast.Instantiation{DeclPos: pkg.Pos, Package: pkg.Lit, Args: args, Name: name.Lit}, nil
}

func (p *parser) controlDecl() (ast.Decl, error) {
	kw := p.next()
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	params, err := p.paramList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	c := &ast.ControlDecl{DeclPos: kw.Pos, Name: name.Lit, Params: params}
	for !p.at(token.KwApply) {
		d, err := p.controlLocal()
		if err != nil {
			return nil, err
		}
		c.Locals = append(c.Locals, d)
	}
	p.next() // apply
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	c.Apply = body
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) controlLocal() (ast.Decl, error) {
	switch p.peek().Kind {
	case token.KwAction:
		return p.actionDecl()
	case token.KwTable:
		return p.tableDecl()
	case token.KwConst:
		d, err := p.constDecl()
		if err != nil {
			return nil, err
		}
		return d, nil
	case token.KwBit, token.KwBool:
		return p.varOrFuncDecl()
	case token.KwVoid:
		return p.functionDecl()
	case token.IDENT:
		return p.varOrFuncDecl()
	default:
		return nil, p.errorf("unexpected %s in control body", p.peek())
	}
}

// varOrFuncDecl disambiguates "T name;" / "T name = e;" from
// "T name(params) {...}".
func (p *parser) varOrFuncDecl() (ast.Decl, error) {
	pos := p.peek().Pos
	t, err := p.typeRef()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if p.at(token.LParen) {
		params, err := p.paramList()
		if err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &ast.FunctionDecl{DeclPos: pos, Name: name.Lit, Return: t, Params: params, Body: body}, nil
	}
	var init ast.Expr
	if p.accept(token.Assign) {
		init, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.Semicolon); err != nil {
		return nil, err
	}
	return &ast.VarDecl{DeclPos: pos, Name: name.Lit, Type: t, Init: init}, nil
}

func (p *parser) tableDecl() (ast.Decl, error) {
	kw := p.next()
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	t := &ast.TableDecl{DeclPos: kw.Pos, Name: name.Lit}
	for !p.at(token.RBrace) {
		switch p.peek().Kind {
		case token.KwKey:
			p.next()
			if _, err := p.expect(token.Assign); err != nil {
				return nil, err
			}
			if _, err := p.expect(token.LBrace); err != nil {
				return nil, err
			}
			for !p.at(token.RBrace) {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(token.Colon); err != nil {
					return nil, err
				}
				if _, err := p.expect(token.KwExact); err != nil {
					return nil, err
				}
				if _, err := p.expect(token.Semicolon); err != nil {
					return nil, err
				}
				t.Keys = append(t.Keys, ast.TableKey{Expr: e, Match: ast.MatchExact})
			}
			p.next() // }
		case token.KwActions:
			p.next()
			if _, err := p.expect(token.Assign); err != nil {
				return nil, err
			}
			if _, err := p.expect(token.LBrace); err != nil {
				return nil, err
			}
			for !p.at(token.RBrace) {
				a, err := p.expect(token.IDENT)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(token.Semicolon); err != nil {
					return nil, err
				}
				t.Actions = append(t.Actions, ast.ActionRef{Name: a.Lit})
			}
			p.next() // }
		case token.KwDefaultAction:
			p.next()
			if _, err := p.expect(token.Assign); err != nil {
				return nil, err
			}
			a, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			ref := ast.ActionRef{Name: a.Lit}
			if p.accept(token.LParen) {
				for !p.at(token.RParen) {
					if len(ref.Args) > 0 {
						if _, err := p.expect(token.Comma); err != nil {
							return nil, err
						}
					}
					arg, err := p.expr()
					if err != nil {
						return nil, err
					}
					ref.Args = append(ref.Args, arg)
				}
				p.next() // )
			}
			if _, err := p.expect(token.Semicolon); err != nil {
				return nil, err
			}
			t.Default = &ref
		default:
			return nil, p.errorf("unexpected %s in table body", p.peek())
		}
	}
	p.next() // }
	return t, nil
}

func (p *parser) parserDecl() (ast.Decl, error) {
	kw := p.next()
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	params, err := p.paramList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	d := &ast.ParserDecl{DeclPos: kw.Pos, Name: name.Lit, Params: params}
	for !p.at(token.RBrace) {
		st, err := p.parserState()
		if err != nil {
			return nil, err
		}
		d.States = append(d.States, *st)
	}
	p.next() // }
	return d, nil
}

func (p *parser) parserState() (*ast.ParserState, error) {
	kw, err := p.expect(token.KwState)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	st := &ast.ParserState{DeclPos: kw.Pos, Name: name.Lit}
	for !p.at(token.RBrace) && !p.at(token.KwTransition) {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		st.Stmts = append(st.Stmts, s)
	}
	if p.accept(token.KwTransition) {
		if p.accept(token.KwSelect) {
			if _, err := p.expect(token.LParen); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			if _, err := p.expect(token.LBrace); err != nil {
				return nil, err
			}
			sel := &ast.TransSelect{Expr: e}
			for !p.at(token.RBrace) {
				var c ast.SelectCase
				if p.at(token.INTLIT) {
					lit := p.next()
					w, v, perr := lexer.ParseIntLit(lit.Lit)
					if perr != nil {
						return nil, p.errorf("%v", perr)
					}
					c.Value = &ast.IntLit{LitPos: lit.Pos, Width: w, Val: v}
				} else if !p.acceptIdent("default") {
					return nil, p.errorf("expected select case value or default, found %s", p.peek())
				}
				if _, err := p.expect(token.Colon); err != nil {
					return nil, err
				}
				next, err := p.expect(token.IDENT)
				if err != nil {
					return nil, err
				}
				c.Next = next.Lit
				if _, err := p.expect(token.Semicolon); err != nil {
					return nil, err
				}
				sel.Cases = append(sel.Cases, c)
			}
			p.next() // }
			st.Trans = sel
		} else {
			next, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.Semicolon); err != nil {
				return nil, err
			}
			st.Trans = &ast.TransDirect{Next: next.Lit}
		}
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return st, nil
}

// acceptIdent consumes an IDENT token with the exact literal.
func (p *parser) acceptIdent(lit string) bool {
	if p.at(token.IDENT) && p.peek().Lit == lit {
		p.next()
		return true
	}
	return false
}
