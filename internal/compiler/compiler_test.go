package compiler_test

import (
	"math/rand"
	"strings"
	"testing"

	"gauntlet/internal/compiler"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/eval"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/types"
	"gauntlet/internal/validate"
)

// corpus programs exercise every pass: functions to inline, direct action
// calls, exits, slices, side effects in expressions, dead stores,
// constants to fold, multiplications to reduce, and ifs to predicate.
var corpus = []struct {
	name string
	src  string
}{
	{"fig5a-shape", `
header H { bit<8> a; }
struct S { H h; }
control ig(inout S hdr) {
    bit<8> test(inout bit<8> x) {
        return x;
    }
    apply {
        bit<8> r = test(hdr.h.a);
        hdr.h.a = hdr.h.a + r;
    }
}
V1Switch(ig) main;
`},
	{"fig5d-shape", `
header H { bit<8> a; }
struct S { H h; }
control ig(inout S hdr) {
    action a(inout bit<7> val) {
        hdr.h.a[0:0] = 1w0;
        val = val + 7w1;
    }
    apply {
        a(hdr.h.a[7:1]);
    }
}
V1Switch(ig) main;
`},
	{"fig5f-shape", `
header Eth { bit<16> eth_type; }
struct S { Eth eth; }
control ig(inout S h) {
    action a(inout bit<16> val) {
        val = 16w3;
        exit;
    }
    apply {
        a(h.eth.eth_type);
        h.eth.eth_type = 16w99;
    }
}
V1Switch(ig) main;
`},
	{"sideeffects", `
control ig(inout bit<8> x, inout bit<8> y) {
    bit<8> bump(inout bit<8> v) {
        v = v + 8w1;
        return v;
    }
    apply {
        x = bump(y) + bump(y) * 8w2;
        if (x > 8w10 && bump(y) == 8w3) {
            x = 8w0;
        }
    }
}
V1Switch(ig) main;
`},
	{"folding", `
control ig(inout bit<8> x) {
    apply {
        x = x * 8w4 + (8w2 + 8w3) * 8w1;
        if (8w3 < 8w5) {
            x = x + 8w0;
        } else {
            x = x - 8w7;
        }
        x = x ^ x;
        x = (x | 8w0) & 8w255;
    }
}
V1Switch(ig) main;
`},
	{"predication", `
header H { bit<8> a; bit<8> b; }
struct S { H h; }
control ig(inout S hdr) {
    action flip() {
        if (hdr.h.a == 8w1) {
            hdr.h.a = 8w2;
            if (hdr.h.b > 8w7) {
                hdr.h.b = hdr.h.a;
            }
        } else {
            hdr.h.b = 8w1;
        }
    }
    table t {
        key = { hdr.h.a : exact; }
        actions = { flip; NoAction; }
        default_action = flip();
    }
    apply { t.apply(); }
}
V1Switch(ig) main;
`},
	{"deadstores", `
control ig(inout bit<8> x) {
    apply {
        bit<8> unused = x + 8w1;
        bit<8> t = 8w3;
        t = 8w4;
        x = x + t;
        bit<8> late = x;
        late = late + 8w1;
    }
}
V1Switch(ig) main;
`},
	{"copyprop", `
control ig(inout bit<8> x, inout bit<8> y) {
    apply {
        bit<8> a = x;
        bit<8> b = a;
        y = b + a;
        if (y == x) {
            bit<8> c = y;
            x = c;
        }
    }
}
V1Switch(ig) main;
`},
	{"validity", `
header H { bit<8> a; }
struct S { H h; }
control ig(inout S hdr, inout bit<8> y) {
    apply {
        if (!hdr.h.isValid()) {
            hdr.h.setValid();
            hdr.h.a = y;
        } else {
            y = hdr.h.a;
            hdr.h.setInvalid();
        }
    }
}
V1Switch(ig) main;
`},
	{"mux-calls", `
control ig(inout bit<8> x, inout bit<8> y) {
    bit<8> f(in bit<8> v) {
        return v + 8w1;
    }
    apply {
        x = y > 8w4 ? f(x) : f(y);
    }
}
V1Switch(ig) main;
`},
}

func compileOK(t *testing.T, src string) *compiler.Result {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := types.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	c := compiler.New(compiler.DefaultPasses()...)
	res, err := c.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res
}

// TestPipelinePreservesSemantics is the central compiler test: with no
// seeded defects, translation validation across every pass of every
// corpus program must find zero inequivalences.
func TestPipelinePreservesSemantics(t *testing.T) {
	for _, tc := range corpus {
		t.Run(tc.name, func(t *testing.T) {
			res := compileOK(t, tc.src)
			verdicts, err := validate.Snapshots(res, validate.Options{})
			if err != nil {
				t.Fatalf("validate: %v", err)
			}
			for _, f := range validate.Failures(verdicts) {
				t.Errorf("MISCOMPILATION: %s\n--- before (%s) ---\n%s\n--- after (%s) ---\n%s",
					f, f.PassA, textOf(res, f.PassA), f.PassB, textOf(res, f.PassB))
			}
		})
	}
}

func textOf(res *compiler.Result, pass string) string {
	for _, s := range res.Snapshots {
		if s.Pass == pass {
			return s.Text
		}
	}
	return "(missing)"
}

// TestPipelineConcreteDifferential cross-checks initial vs final program
// behaviour with the concrete evaluator on random inputs — a second,
// independent oracle next to translation validation.
func TestPipelineConcreteDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, tc := range corpus {
		if strings.Contains(tc.src, "table") {
			continue // table configs differ in shape; covered by TV
		}
		t.Run(tc.name, func(t *testing.T) {
			res := compileOK(t, tc.src)
			first := res.Snapshots[0].Prog
			last := res.Final
			ctrlA := first.Controls()[0]
			ctrlB := last.Controls()[0]
			for trial := 0; trial < 30; trial++ {
				argsA := randomArgs(ctrlA.Params, r)
				argsB := cloneArgs(argsA)
				inA := eval.New(first, nil)
				inB := eval.New(last, nil)
				if err := inA.ExecControl(ctrlA, argsA); err != nil {
					t.Fatalf("eval A: %v", err)
				}
				if err := inB.ExecControl(ctrlB, argsB); err != nil {
					t.Fatalf("eval B: %v", err)
				}
				for i := range argsA {
					if !eval.Equal(argsA[i], argsB[i]) {
						t.Fatalf("trial %d: initial and final programs disagree on arg %d:\n A: %s\n B: %s\n--- final ---\n%s",
							trial, i, argsA[i], argsB[i], res.Snapshots[len(res.Snapshots)-1].Text)
					}
				}
			}
		})
	}
}

func randomArgs(params []ast.Param, r *rand.Rand) []eval.Value {
	var out []eval.Value
	for _, p := range params {
		out = append(out, randomValue(p.Type, r))
	}
	return out
}

func randomValue(t ast.Type, r *rand.Rand) eval.Value {
	switch t := t.(type) {
	case *ast.BitType:
		return &eval.BitVal{Width: t.Width, V: ast.MaskWidth(r.Uint64(), t.Width)}
	case *ast.BoolType:
		return &eval.BoolVal{V: r.Intn(2) == 1}
	case *ast.HeaderType:
		h := eval.NewValue(t).(*eval.HeaderVal)
		h.Valid = r.Intn(2) == 1
		for _, f := range t.Fields {
			h.F[f.Name] = randomValue(f.Type, r)
		}
		return h
	case *ast.StructType:
		s := eval.NewValue(t).(*eval.StructVal)
		for _, f := range t.Fields {
			s.F[f.Name] = randomValue(f.Type, r)
		}
		return s
	default:
		panic("randomValue: unsupported type")
	}
}

func cloneArgs(args []eval.Value) []eval.Value {
	out := make([]eval.Value, len(args))
	for i, a := range args {
		out[i] = a.Clone()
	}
	return out
}

// TestPassesNormalize checks structural post-conditions of key passes.
func TestPassesNormalize(t *testing.T) {
	res := compileOK(t, corpus[3].src) // "sideeffects"
	final := res.Final
	// After inlining, no user calls remain anywhere.
	for _, c := range final.Controls() {
		ast.InspectStmt(c.Apply, nil, func(e ast.Expr) bool {
			if call, ok := e.(*ast.CallExpr); ok {
				if _, isM := call.Func.(*ast.MemberExpr); !isM {
					if id, _ := call.Func.(*ast.Ident); id != nil && id.Name != "NoAction" {
						t.Errorf("user call %s survived inlining", id.Name)
					}
				}
			}
			return true
		})
	}
}

// TestCrashSurfacesAsCrashError ensures pass panics become CrashError
// (the classification Gauntlet's crash-bug hunting depends on).
func TestCrashSurfacesAsCrashError(t *testing.T) {
	prog, err := parser.Parse(corpus[0].src)
	if err != nil {
		t.Fatal(err)
	}
	if err := types.Check(prog); err != nil {
		t.Fatal(err)
	}
	c := compiler.New(panicPass{})
	_, cerr := c.Compile(prog)
	ce, ok := cerr.(*compiler.CrashError)
	if !ok {
		t.Fatalf("error = %v (%T), want CrashError", cerr, cerr)
	}
	if ce.Pass != "Panicky" || !strings.Contains(ce.Msg, "assertion") {
		t.Errorf("unexpected crash fingerprint: %+v", ce)
	}
}

type panicPass struct{}

func (panicPass) Name() string { return "Panicky" }
func (panicPass) Run(p *ast.Program) (*ast.Program, error) {
	panic("assertion failed: visitor invariant violated")
}
