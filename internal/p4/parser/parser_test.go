package parser_test

import (
	"strings"
	"testing"

	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/printer"
	"gauntlet/internal/p4/types"
)

// fig3 is the program from Figure 3a of the paper (simplified P4 applying a
// table), adapted to the subset grammar.
const fig3 = `
header Hdr_t {
    bit<8> a;
    bit<8> b;
}
struct Hdr {
    Hdr_t h;
}
control ingress(inout Hdr hdr) {
    action assign() {
        hdr.h.a = 8w1;
    }
    table t {
        key = {
            hdr.h.a : exact;
        }
        actions = {
            assign;
            NoAction;
        }
        default_action = NoAction();
    }
    apply {
        t.apply();
    }
}
V1Switch(ingress) main;
`

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func TestParseFigure3(t *testing.T) {
	prog := mustParse(t, fig3)
	if got := len(prog.Decls); got != 4 {
		t.Fatalf("got %d decls, want 4", got)
	}
	ctrl := prog.Control("ingress")
	if ctrl == nil {
		t.Fatal("missing control ingress")
	}
	if len(ctrl.Locals) != 2 {
		t.Fatalf("got %d locals, want 2", len(ctrl.Locals))
	}
	tbl, ok := ctrl.Locals[1].(*ast.TableDecl)
	if !ok {
		t.Fatalf("local[1] is %T, want table", ctrl.Locals[1])
	}
	if len(tbl.Keys) != 1 || len(tbl.Actions) != 2 || tbl.Default == nil {
		t.Fatalf("table shape wrong: %+v", tbl)
	}
	if prog.Main() == nil || prog.Main().Package != "V1Switch" {
		t.Fatal("missing main instantiation")
	}
}

func TestTypeCheckFigure3(t *testing.T) {
	prog := mustParse(t, fig3)
	if err := types.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
}

func TestRoundTripFigure3(t *testing.T) {
	prog := mustParse(t, fig3)
	text1 := printer.Print(prog)
	prog2, err := parser.Parse(text1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text1)
	}
	text2 := printer.Print(prog2)
	if text1 != text2 {
		t.Fatalf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []struct {
		src  string
		want string // printed form; "" means same as src
	}{
		{"a + b * c", ""},
		{"(a + b) * c", ""},
		{"a + b + c", ""},
		{"a + (b + c)", ""},
		{"a << 2 | b", "a << 2 | b"},
		{"~a & b ^ c", ""},
		{"a == b && c != d", ""},
		{"x[7:1]", ""},
		{"h.eth.src_addr", ""},
		{"(bit<8>) x", ""},
		{"(bool) y[0:0]", ""},
		{"a ? b : c", ""},
		{"a ? b : c ? d : e", ""},
		{"8w255", ""},
		{"4w0xF", "4w15"},
		{"1 << h.h.c", ""},
		{"a |+| b |-| c", ""},
		{"x ++ y", ""},
		{"!(a == b)", "!(a == b)"},
		{"h.isValid()", ""},
		{"f(a, 8w2, b + c)", ""},
	}
	for _, tc := range cases {
		e, err := parser.ParseExpr(tc.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", tc.src, err)
			continue
		}
		want := tc.want
		if want == "" {
			want = tc.src
		}
		if got := printer.PrintExpr(e); got != want {
			t.Errorf("ParseExpr(%q) printed as %q, want %q", tc.src, got, want)
		}
		// Round trip again.
		e2, err := parser.ParseExpr(printer.PrintExpr(e))
		if err != nil {
			t.Errorf("reparse of %q: %v", printer.PrintExpr(e), err)
			continue
		}
		if got := printer.PrintExpr(e2); got != want {
			t.Errorf("second round of %q printed as %q, want %q", tc.src, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"header H { bit<8> a }",                                  // missing semicolon
		"control c(inout bit<8> x) { }",                          // missing apply
		"control c() { apply { x = ; } }",                        // bad expression
		"header H { bit<8> a; } junk",                            // trailing garbage
		"control c() { apply { 1 = x; } }",                       // non-lvalue assignment
		"control c() { apply { f(x) } }",                         // missing semicolon after call
		"parser p() { state s { transition select(x) { 1: } } }", // missing target
	}
	for _, src := range cases {
		if _, err := parser.Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestLexicalErrorWins checks that a lexical error is reported even when
// a syntax error comes before it in the source: the parser pulls tokens
// lazily and stops at the syntax error, but must report what scanning the
// whole source first would have.
func TestLexicalErrorWins(t *testing.T) {
	for _, c := range []struct {
		src, want string
	}{
		{"header H { bit<8> a }\ncontrol c() { apply { x = $; } }", "2:27: syntax error: illegal character '$'"},
		{"control c() { apply { 1 = x; } } /* open", "1:34: syntax error: unterminated block comment"},
		{"header H { bit<8> a; } junk #", "1:29: syntax error: illegal character '#'"},
	} {
		if _, err := parser.Parse(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.src, err, c.want)
		}
	}
	if _, err := parser.ParseExpr("(a + ) ` b"); err == nil || err.Error() != "1:8: syntax error: illegal character '`'" {
		t.Errorf("ParseExpr: %v, want the lexer's error", err)
	}
}

func TestTypeErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"width mismatch", `
control c(inout bit<8> x) {
    apply { x = 16w3; }
}`},
		{"assign to in param", `
control c(in bit<8> x) {
    apply { x = 8w1; }
}`},
		{"readonly arg for inout param", `
control c(in bit<8> x) {
    action a(inout bit<8> v) { v = 8w1; }
    apply { a(x); }
}`},
		{"literal arg for out param", `
control c(inout bit<8> x) {
    action a(out bit<8> v) { v = 8w1; }
    apply { a(8w3); }
}`},
		{"unknown table action", `
control c(inout bit<8> x) {
    table t {
        actions = { missing; }
        default_action = NoAction();
    }
    apply { t.apply(); }
}`},
		{"slice out of range", `
control c(inout bit<8> x) {
    apply { x = x[9:1]; }
}`},
		{"bool arithmetic", `
control c(inout bit<8> x) {
    apply { x = (bit<8>) (true + false); }
}`},
		{"shift of unsized literal", `
header H { bit<8> a; bit<8> c; }
struct S { H h; }
control c(inout S hdr) {
    apply {
        if ((1 << hdr.h.c) == 16) { hdr.h.a = 8w1; }
    }
}`},
		{"undefined variable", `
control c(inout bit<8> x) {
    apply { x = y; }
}`},
		{"duplicate local", `
control c(inout bit<8> x) {
    apply {
        bit<8> y = 8w0;
        bit<8> y = 8w1;
        x = y;
    }
}`},
	}
	for _, tc := range cases {
		prog, err := parser.Parse(tc.src)
		if err != nil {
			t.Errorf("%s: parse failed: %v", tc.name, err)
			continue
		}
		if err := types.Check(prog); err == nil {
			t.Errorf("%s: Check succeeded, want error", tc.name)
		}
	}
}

func TestCheckedLiteralSizing(t *testing.T) {
	prog := mustParse(t, `
control c(inout bit<8> x) {
    apply {
        x = 1;
        x = x + 2;
    }
}`)
	if err := types.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	out := printer.Print(prog)
	if !strings.Contains(out, "x = 8w1;") {
		t.Errorf("literal 1 not sized to 8w1:\n%s", out)
	}
	if !strings.Contains(out, "x + 8w2") {
		t.Errorf("literal 2 not sized to 8w2:\n%s", out)
	}
}

func TestParserStateMachine(t *testing.T) {
	prog := mustParse(t, `
header Eth { bit<48> dst; bit<48> src; bit<16> etype; }
struct Hdr { Eth eth; }
parser p(inout Hdr h, in bit<16> probe) {
    state start {
        transition select(probe) {
            16w0x800 : ipv4;
            default : accept;
        }
    }
    state ipv4 {
        h.eth.etype = 16w1;
        transition accept;
    }
}
`)
	if err := types.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	pd := prog.Parser("p")
	if pd == nil || len(pd.States) != 2 {
		t.Fatal("parser states not parsed")
	}
	sel, ok := pd.States[0].Trans.(*ast.TransSelect)
	if !ok || len(sel.Cases) != 2 {
		t.Fatalf("select not parsed: %+v", pd.States[0].Trans)
	}
}
