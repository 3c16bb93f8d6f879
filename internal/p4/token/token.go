// Package token defines the lexical tokens of the P4₁₆ subset understood by
// this repository, along with source positions used in diagnostics.
//
// The subset follows the P4₁₆ specification (v1.2.0) closely for the
// constructs Gauntlet exercises: headers, structs, bit<N> and bool types,
// controls, parsers, tables, actions, functions with in/inout/out parameter
// directions, and the statement/expression grammar needed by the paper's
// evaluation programs (Figures 3 and 5).
package token

import "fmt"

// Kind enumerates the token kinds produced by the lexer.
type Kind int

// Token kinds. The order groups literals, identifiers, keywords, operators
// and punctuation; Kind values are internal and must not be persisted.
const (
	EOF Kind = iota
	ILLEGAL

	// Literals and identifiers.
	IDENT  // ingress, hdr, x
	INTLIT // 42, 8w255, 0x1F, 2s3

	// Keywords.
	KwAction
	KwApply
	KwBit
	KwBool
	KwConst
	KwControl
	KwDefaultAction
	KwElse
	KwEntries
	KwExact
	KwExit
	KwFalse
	KwHeader
	KwIf
	KwIn
	KwInout
	KwKey
	KwOut
	KwPackage
	KwPacket
	KwParser
	KwReturn
	KwSelect
	KwState
	KwStruct
	KwSwitch
	KwTable
	KwTransition
	KwTrue
	KwTypedef
	KwVoid
	KwActions

	// Operators.
	Assign   // =
	Plus     // +
	Minus    // -
	Star     // *
	Slash    // /
	Percent  // %
	PlusSat  // |+|
	MinusSat // |-|
	Amp      // &
	Pipe     // |
	Caret    // ^
	Tilde    // ~
	Shl      // <<
	Shr      // >>
	AndAnd   // &&
	OrOr     // ||
	Bang     // !
	Eq       // ==
	NotEq    // !=
	Lt       // <
	Le       // <=
	Gt       // >
	Ge       // >=
	PlusPlus // ++ (concatenation)

	// Punctuation.
	LParen    // (
	RParen    // )
	LBrace    // {
	RBrace    // }
	LBracket  // [
	RBracket  // ]
	LAngleArg // < in bit<N>
	Comma     // ,
	Semicolon // ;
	Colon     // :
	Dot       // .
	Question  // ?
	At        // @
)

var kindNames = map[Kind]string{
	EOF:             "EOF",
	ILLEGAL:         "ILLEGAL",
	IDENT:           "identifier",
	INTLIT:          "integer literal",
	KwAction:        "action",
	KwApply:         "apply",
	KwBit:           "bit",
	KwBool:          "bool",
	KwConst:         "const",
	KwControl:       "control",
	KwDefaultAction: "default_action",
	KwElse:          "else",
	KwEntries:       "entries",
	KwExact:         "exact",
	KwExit:          "exit",
	KwFalse:         "false",
	KwHeader:        "header",
	KwIf:            "if",
	KwIn:            "in",
	KwInout:         "inout",
	KwKey:           "key",
	KwOut:           "out",
	KwPackage:       "package",
	KwPacket:        "packet",
	KwParser:        "parser",
	KwReturn:        "return",
	KwSelect:        "select",
	KwState:         "state",
	KwStruct:        "struct",
	KwSwitch:        "switch",
	KwTable:         "table",
	KwTransition:    "transition",
	KwTrue:          "true",
	KwTypedef:       "typedef",
	KwVoid:          "void",
	KwActions:       "actions",
	Assign:          "=",
	Plus:            "+",
	Minus:           "-",
	Star:            "*",
	Slash:           "/",
	Percent:         "%",
	PlusSat:         "|+|",
	MinusSat:        "|-|",
	Amp:             "&",
	Pipe:            "|",
	Caret:           "^",
	Tilde:           "~",
	Shl:             "<<",
	Shr:             ">>",
	AndAnd:          "&&",
	OrOr:            "||",
	Bang:            "!",
	Eq:              "==",
	NotEq:           "!=",
	Lt:              "<",
	Le:              "<=",
	Gt:              ">",
	Ge:              ">=",
	PlusPlus:        "++",
	LParen:          "(",
	RParen:          ")",
	LBrace:          "{",
	RBrace:          "}",
	LBracket:        "[",
	RBracket:        "]",
	LAngleArg:       "<",
	Comma:           ",",
	Semicolon:       ";",
	Colon:           ":",
	Dot:             ".",
	Question:        "?",
	At:              "@",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords maps keyword spellings to their token kinds.
var Keywords = map[string]Kind{
	"action":         KwAction,
	"actions":        KwActions,
	"apply":          KwApply,
	"bit":            KwBit,
	"bool":           KwBool,
	"const":          KwConst,
	"control":        KwControl,
	"default_action": KwDefaultAction,
	"else":           KwElse,
	"entries":        KwEntries,
	"exact":          KwExact,
	"exit":           KwExit,
	"false":          KwFalse,
	"header":         KwHeader,
	"if":             KwIf,
	"in":             KwIn,
	"inout":          KwInout,
	"key":            KwKey,
	"out":            KwOut,
	"package":        KwPackage,
	"packet":         KwPacket,
	"parser":         KwParser,
	"return":         KwReturn,
	"select":         KwSelect,
	"state":          KwState,
	"struct":         KwStruct,
	"switch":         KwSwitch,
	"table":          KwTable,
	"transition":     KwTransition,
	"true":           KwTrue,
	"typedef":        KwTypedef,
	"void":           KwVoid,
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// IsValid reports whether the position was set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a single lexical token with its literal text and position.
type Token struct {
	Kind Kind
	Lit  string
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, ILLEGAL:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	default:
		return t.Kind.String()
	}
}

// IsKeyword reports whether the kind is a reserved word.
func (k Kind) IsKeyword() bool { return k >= KwAction && k <= KwActions }
