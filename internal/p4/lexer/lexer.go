// Package lexer implements the scanner for the P4₁₆ subset. It produces the
// token stream consumed by the parser and is the first of McKeeman's levels
// (Table 1 of the paper) an input must pass.
package lexer

import (
	"fmt"
	"strconv"
	"strings"

	"gauntlet/internal/p4/token"
)

// Error is a lexical error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans P4 source text into tokens.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	errs []*Error
}

// New creates a lexer over the given source text.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

// ScanAll scans the entire input, returning all tokens up to and including
// EOF, plus any lexical errors.
func ScanAll(src string) ([]token.Token, []*Error) {
	l := New(src)
	// Printed programs and the registry's witnesses run 2.9 to 4.5 source
	// bytes per token, so this capacity almost never grows.
	toks := make([]token.Token, 0, len(src)/3+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, l.errs
		}
	}
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errs = append(l.errs, &Error{Pos: start, Msg: "unterminated block comment"})
			}
		default:
			return
		}
	}
}

func isLetter(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// Next scans and returns the next token.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	c := l.peek()
	switch {
	case isLetter(c):
		return l.scanIdent(pos)
	case isDigit(c):
		return l.scanNumber(pos)
	}
	l.advance()
	two := func(next byte, ifTwo, ifOne token.Kind) token.Token {
		if l.peek() == next {
			l.advance()
			return token.Token{Kind: ifTwo, Pos: pos}
		}
		return token.Token{Kind: ifOne, Pos: pos}
	}
	switch c {
	case '=':
		return two('=', token.Eq, token.Assign)
	case '+':
		return two('+', token.PlusPlus, token.Plus)
	case '-':
		return token.Token{Kind: token.Minus, Pos: pos}
	case '*':
		return token.Token{Kind: token.Star, Pos: pos}
	case '/':
		return token.Token{Kind: token.Slash, Pos: pos}
	case '%':
		return token.Token{Kind: token.Percent, Pos: pos}
	case '&':
		return two('&', token.AndAnd, token.Amp)
	case '|':
		if l.peek() == '|' {
			l.advance()
			return token.Token{Kind: token.OrOr, Pos: pos}
		}
		if l.peek() == '+' && l.peek2() == '|' {
			l.advance()
			l.advance()
			return token.Token{Kind: token.PlusSat, Pos: pos}
		}
		if l.peek() == '-' && l.peek2() == '|' {
			l.advance()
			l.advance()
			return token.Token{Kind: token.MinusSat, Pos: pos}
		}
		return token.Token{Kind: token.Pipe, Pos: pos}
	case '^':
		return token.Token{Kind: token.Caret, Pos: pos}
	case '~':
		return token.Token{Kind: token.Tilde, Pos: pos}
	case '!':
		return two('=', token.NotEq, token.Bang)
	case '<':
		if l.peek() == '<' {
			l.advance()
			return token.Token{Kind: token.Shl, Pos: pos}
		}
		return two('=', token.Le, token.Lt)
	case '>':
		if l.peek() == '>' {
			l.advance()
			return token.Token{Kind: token.Shr, Pos: pos}
		}
		return two('=', token.Ge, token.Gt)
	case '(':
		return token.Token{Kind: token.LParen, Pos: pos}
	case ')':
		return token.Token{Kind: token.RParen, Pos: pos}
	case '{':
		return token.Token{Kind: token.LBrace, Pos: pos}
	case '}':
		return token.Token{Kind: token.RBrace, Pos: pos}
	case '[':
		return token.Token{Kind: token.LBracket, Pos: pos}
	case ']':
		return token.Token{Kind: token.RBracket, Pos: pos}
	case ',':
		return token.Token{Kind: token.Comma, Pos: pos}
	case ';':
		return token.Token{Kind: token.Semicolon, Pos: pos}
	case ':':
		return token.Token{Kind: token.Colon, Pos: pos}
	case '.':
		return token.Token{Kind: token.Dot, Pos: pos}
	case '?':
		return token.Token{Kind: token.Question, Pos: pos}
	case '@':
		return token.Token{Kind: token.At, Pos: pos}
	}
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf("illegal character %q", c)})
	return token.Token{Kind: token.ILLEGAL, Lit: string(c), Pos: pos}
}

func (l *Lexer) scanIdent(pos token.Pos) token.Token {
	start := l.off
	for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
		l.advance()
	}
	lit := l.src[start:l.off]
	if k, ok := token.Keywords[lit]; ok {
		return token.Token{Kind: k, Lit: lit, Pos: pos}
	}
	return token.Token{Kind: token.IDENT, Lit: lit, Pos: pos}
}

// scanNumber scans decimal, hexadecimal (0x...), and width-prefixed
// (e.g. 8w255, 4w0xF) integer literals.
func (l *Lexer) scanNumber(pos token.Pos) token.Token {
	start := l.off
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	// Width prefix: digits 'w' number.
	if l.peek() == 'w' {
		l.advance()
		if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
			l.advance()
			l.advance()
			for l.off < len(l.src) && isHexDigit(l.peek()) {
				l.advance()
			}
		} else {
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		return token.Token{Kind: token.INTLIT, Lit: l.src[start:l.off], Pos: pos}
	}
	// Hexadecimal.
	if l.src[start] == '0' && (l.peek() == 'x' || l.peek() == 'X') && l.off == start+1 {
		l.advance()
		for l.off < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
	}
	return token.Token{Kind: token.INTLIT, Lit: l.src[start:l.off], Pos: pos}
}

// ParseIntLit decodes an INTLIT literal into (width, value). Width 0 means
// an unsized literal. Returns an error for malformed or overflowing
// literals (width > 64 is rejected here; the type checker re-checks).
func ParseIntLit(lit string) (width int, val uint64, err error) {
	if i := strings.IndexByte(lit, 'w'); i >= 0 {
		w, werr := strconv.Atoi(lit[:i])
		if werr != nil {
			return 0, 0, fmt.Errorf("bad width in literal %q", lit)
		}
		if w <= 0 || w > 64 {
			return 0, 0, fmt.Errorf("literal width %d out of range [1,64]", w)
		}
		v, verr := parseUint(lit[i+1:])
		if verr != nil {
			return 0, 0, verr
		}
		if w < 64 && v >= 1<<uint(w) {
			// P4 masks oversized literal values to the width.
			v &= (1 << uint(w)) - 1
		}
		return w, v, nil
	}
	v, verr := parseUint(lit)
	return 0, v, verr
}

func parseUint(s string) (uint64, error) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err := strconv.ParseUint(s[2:], 16, 64)
		if err != nil {
			return 0, fmt.Errorf("bad hex literal %q", s)
		}
		return v, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad integer literal %q", s)
	}
	return v, nil
}
