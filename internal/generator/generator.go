// Package generator implements Gauntlet's random P4 program generator
// (§4): it grows a random abstract syntax tree by probabilistically
// choosing which node to add, steered by per-construct weights, and
// guarantees the result is syntactically sound and well-typed — "if P4C's
// parser and type checker correctly rejected a generated program, we
// consider this to be a bug in our random program generator" (§4.2), a
// property this package's tests enforce over thousands of seeds.
//
// The generator is specialized to a back-end package skeleton (v1model for
// BMv2, a TNA-like skeleton for the Tofino stand-in) by emitting the
// architecture's parser/control/deparser blocks and metadata structures.
package generator

import (
	"fmt"
	"math/rand"

	"gauntlet/internal/p4/ast"
)

// Backend selects the package skeleton to generate against (§4.2: "our
// random program generator can be specialized towards different compiler
// back ends").
type Backend int

// Supported back-end skeletons.
const (
	// V1Model mirrors the BMv2 simple-switch architecture: parser,
	// ingress, egress, deparser.
	V1Model Backend = iota
	// TNA mirrors a Tofino-like architecture with its own metadata.
	TNA
)

// String names the backend.
func (b Backend) String() string {
	if b == TNA {
		return "tna"
	}
	return "v1model"
}

// ParseBackend is String's inverse. The empty name is the default,
// V1Model.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "v1model":
		return V1Model, nil
	case "tna":
		return TNA, nil
	}
	return V1Model, fmt.Errorf("unknown backend %q (want v1model or tna)", name)
}

// Weights steers the probability of generating each statement kind.
// Values are relative; zero disables a construct.
type Weights struct {
	Assign     int
	If         int
	Switch     int
	ActionCall int
	FuncCall   int
	TableApply int
	VarDecl    int
	Validity   int // setValid / setInvalid
	Exit       int
	Block      int
}

// DefaultWeights mirrors the distribution used for the paper's campaigns:
// assignment-heavy with a steady diet of branching and side effects.
func DefaultWeights() Weights {
	return Weights{
		Assign:     10,
		If:         4,
		Switch:     1,
		ActionCall: 3,
		FuncCall:   3,
		TableApply: 3,
		VarDecl:    4,
		Validity:   2,
		Exit:       1,
		Block:      1,
	}
}

// Config parameterizes one generated program. The zero value is not
// useful; start from DefaultConfig.
type Config struct {
	Seed    int64
	Backend Backend
	// MaxStmts bounds the statement count per block body ("the amount of
	// randomly generated code in our tool is user-configurable", §4.1).
	MaxStmts int
	// ExprDepth bounds expression tree depth.
	ExprDepth int
	// MaxHeaders bounds the number of header types.
	MaxHeaders int
	// MaxActions and MaxTables bound control contents.
	MaxActions int
	MaxTables  int
	// MaxFuncs bounds helper functions (inout params + returns — the
	// Fig. 5a bug shape).
	MaxFuncs int
	Weights  Weights
}

// DefaultConfig returns the paper-scale configuration: small, targeted
// programs that keep solver formulas cheap (§2.3).
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:       seed,
		Backend:    V1Model,
		MaxStmts:   8,
		ExprDepth:  3,
		MaxHeaders: 3,
		MaxActions: 3,
		MaxTables:  2,
		MaxFuncs:   2,
		Weights:    DefaultWeights(),
	}
}

// widthChoices are the header field widths the generator draws from
// (realistic protocol field sizes).
var widthChoices = []int{1, 2, 4, 7, 8, 12, 16, 24, 32, 48}

// Generate produces a random, well-typed program for the configured
// backend. The same Config always yields the same program.
func Generate(cfg Config) *ast.Program {
	g := &gen{cfg: cfg, r: rand.New(rand.NewSource(cfg.Seed))}
	return g.program()
}

type gen struct {
	cfg  Config
	r    *rand.Rand
	n    int
	prog *ast.Program

	headers []*ast.HeaderDecl
	hdrType *ast.StructType
	metaTy  *ast.StructType
}

func (g *gen) fresh(prefix string) string {
	g.n++
	return fmt.Sprintf("%s_%d", prefix, g.n)
}

func (g *gen) pick(n int) int { return g.r.Intn(n) }

func (g *gen) chance(num, den int) bool { return g.r.Intn(den) < num }

// variable is a readable (and possibly writable) access path in scope.
type variable struct {
	expr     ast.Expr // access path template (cloned on use)
	typ      ast.Type
	writable bool
}

// scope is the generator's symbol table.
type scope struct {
	vars    []variable
	actions []*ast.ActionDecl
	funcs   []*ast.FunctionDecl
	tables  []*ast.TableDecl
	// headerPaths lists header-typed lvalues for validity calls.
	headerPaths []variable
}

func (s *scope) clone() *scope {
	c := &scope{}
	c.vars = append(c.vars, s.vars...)
	c.actions = append(c.actions, s.actions...)
	c.funcs = append(c.funcs, s.funcs...)
	c.tables = append(c.tables, s.tables...)
	c.headerPaths = append(c.headerPaths, s.headerPaths...)
	return c
}

// bitVars returns the in-scope bit-typed variables, optionally writable
// only.
func (s *scope) bitVars(writableOnly bool) []variable {
	var out []variable
	for _, v := range s.vars {
		if _, ok := v.typ.(*ast.BitType); ok && (!writableOnly || v.writable) {
			out = append(out, v)
		}
	}
	return out
}

func (s *scope) boolVars(writableOnly bool) []variable {
	var out []variable
	for _, v := range s.vars {
		if _, ok := v.typ.(*ast.BoolType); ok && (!writableOnly || v.writable) {
			out = append(out, v)
		}
	}
	return out
}

// program generates the whole compilation unit.
func (g *gen) program() *ast.Program {
	g.prog = &ast.Program{}

	// Header types and the Headers struct.
	nHeaders := 1 + g.pick(g.cfg.MaxHeaders)
	var hdrFields []ast.Field
	for i := 0; i < nHeaders; i++ {
		h := &ast.HeaderDecl{Name: fmt.Sprintf("Hdr%d", i+1)}
		nFields := 1 + g.pick(3)
		for j := 0; j < nFields; j++ {
			w := widthChoices[g.pick(len(widthChoices))]
			h.Fields = append(h.Fields, ast.Field{
				Name: fmt.Sprintf("f%d", j+1),
				Type: &ast.BitType{Width: w},
			})
		}
		g.prog.Decls = append(g.prog.Decls, h)
		g.headers = append(g.headers, h)
		hdrFields = append(hdrFields, ast.Field{
			Name: fmt.Sprintf("h%d", i+1),
			Type: &ast.NamedType{Name: h.Name},
		})
	}
	g.prog.Decls = append(g.prog.Decls, &ast.StructDecl{Name: "Headers", Fields: hdrFields})

	// Architecture metadata.
	metaName := "standard_metadata_t"
	if g.cfg.Backend == TNA {
		metaName = "ig_intr_md_t"
	}
	metaFields := []ast.Field{
		{Name: "ingress_port", Type: &ast.BitType{Width: 9}},
		{Name: "egress_spec", Type: &ast.BitType{Width: 9}},
		{Name: "drop_flag", Type: &ast.BitType{Width: 1}},
		{Name: "user_meta", Type: &ast.BitType{Width: 16}},
	}
	g.prog.Decls = append(g.prog.Decls, &ast.StructDecl{Name: metaName, Fields: metaFields})

	// Blocks.
	g.prog.Decls = append(g.prog.Decls, g.parserDecl(metaName))
	g.prog.Decls = append(g.prog.Decls, g.controlDecl("ingress", metaName, true))
	g.prog.Decls = append(g.prog.Decls, g.controlDecl("egress", metaName, false))
	g.prog.Decls = append(g.prog.Decls, g.deparserDecl())

	pkg := "V1Switch"
	if g.cfg.Backend == TNA {
		pkg = "TofinoSwitch"
	}
	g.prog.Decls = append(g.prog.Decls, &ast.Instantiation{
		Package: pkg,
		Args:    []string{"p", "ingress", "egress", "dep"},
		Name:    "main",
	})
	return g.prog
}

// parserDecl builds the parser: extract the first header, then optionally
// select on one of its fields to extract subsequent headers.
func (g *gen) parserDecl(metaName string) *ast.ParserDecl {
	p := &ast.ParserDecl{
		Name: "p",
		Params: []ast.Param{
			{Name: "pkt", Type: &ast.PacketType{}},
			{Dir: ast.DirOut, Name: "hdr", Type: &ast.NamedType{Name: "Headers"}},
			{Dir: ast.DirInOut, Name: "sm", Type: &ast.NamedType{Name: metaName}},
		},
	}
	extract := func(i int) ast.Stmt {
		return &ast.CallStmt{Call: ast.Call(
			ast.Member(ast.N("pkt"), "extract"),
			ast.Member(ast.N("hdr"), fmt.Sprintf("h%d", i+1)),
		)}
	}
	start := ast.ParserState{Name: "start", Stmts: []ast.Stmt{extract(0)}}
	if len(g.headers) == 1 || g.chance(1, 4) {
		start.Trans = &ast.TransDirect{Next: "accept"}
		p.States = append(p.States, start)
		return p
	}
	// Select on a field of the first header.
	h0 := g.headers[0]
	fieldIdx := g.pick(len(h0.Fields))
	field := h0.Fields[fieldIdx]
	w := field.Type.(*ast.BitType).Width
	sel := &ast.TransSelect{
		Expr: ast.Member(ast.Member(ast.N("hdr"), "h1"), field.Name),
	}
	for i := 1; i < len(g.headers); i++ {
		stateName := fmt.Sprintf("parse_h%d", i+1)
		sel.Cases = append(sel.Cases, ast.SelectCase{
			Value: ast.Num(w, uint64(g.r.Uint64())),
			Next:  stateName,
		})
		next := "accept"
		if i+1 < len(g.headers) && g.chance(1, 2) {
			next = fmt.Sprintf("parse_h%d", i+2)
		}
		p.States = append(p.States, ast.ParserState{
			Name:  stateName,
			Stmts: []ast.Stmt{extract(i)},
			Trans: &ast.TransDirect{Next: next},
		})
	}
	sel.Cases = append(sel.Cases, ast.SelectCase{Next: "accept"}) // default
	start.Trans = sel
	p.States = append(p.States, ast.ParserState{})
	copy(p.States[1:], p.States[:len(p.States)-1])
	p.States[0] = start
	// De-duplicate chained states that may now be unreachable is
	// unnecessary: unreachable states are legal P4.
	return p
}

// deparserDecl emits every header in order.
func (g *gen) deparserDecl() *ast.ControlDecl {
	d := &ast.ControlDecl{
		Name: "dep",
		Params: []ast.Param{
			{Name: "pkt", Type: &ast.PacketType{}},
			{Dir: ast.DirIn, Name: "hdr", Type: &ast.NamedType{Name: "Headers"}},
		},
		Apply: &ast.BlockStmt{},
	}
	for i := range g.headers {
		d.Apply.Stmts = append(d.Apply.Stmts, &ast.CallStmt{Call: ast.Call(
			ast.Member(ast.N("pkt"), "emit"),
			ast.Member(ast.N("hdr"), fmt.Sprintf("h%d", i+1)),
		)})
	}
	return d
}
