package sym_test

import (
	"math/rand"
	"strings"
	"testing"

	"gauntlet/internal/generator"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/eval"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/types"
	"gauntlet/internal/smt"
	"gauntlet/internal/sym"
)

func mustBlock(t *testing.T, src, ctrl string) (*ast.Program, *sym.Block) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := types.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	c := prog.Control(ctrl)
	if c == nil {
		t.Fatalf("no control %q", ctrl)
	}
	b, err := sym.ExecControl(prog, c)
	if err != nil {
		t.Fatalf("sym: %v", err)
	}
	return prog, b
}

// fig3 is the paper's Figure 3a program.
const fig3 = `
header Hdr_t { bit<8> a; bit<8> b; }
struct Hdr { Hdr_t h; }
control ingress(inout Hdr hdr) {
    action assign() { hdr.h.a = 8w1; }
    table t {
        key = { hdr.h.a : exact; }
        actions = { assign; NoAction; }
        default_action = NoAction();
    }
    apply { t.apply(); }
}
`

// TestFigure3FunctionalForm checks the paper's Figure 3b semantics: the
// output is hdr.a=1 iff the symbolic key matches and the symbolic action
// selector picks `assign` (id 1); otherwise the header passes through.
func TestFigure3FunctionalForm(t *testing.T) {
	_, b := mustBlock(t, fig3, "ingress")
	if len(b.Out) != 1 || b.Out[0].Name != "hdr" {
		t.Fatalf("outputs: %+v", b.Out)
	}
	var flat []sym.NamedTerm
	sym.Flatten("hdr", b.Out[0].Val, &flat)
	terms := map[string]*smt.Term{}
	for _, nt := range flat {
		terms[nt.Name] = nt.Term
	}
	aOut := terms["hdr.h.a"]
	if aOut == nil {
		t.Fatalf("missing hdr.h.a output; have %v", flat)
	}

	evalCase := func(a, key, action uint64) uint64 {
		m := smt.Assignment{
			"hdr.h.a":          a,
			"ingress.t.key_0":  key,
			"ingress.t.action": action,
		}
		return smt.Eval(aOut, m)
	}
	// Hit + action 1 (assign): output 1.
	if got := evalCase(7, 7, 1); got != 1 {
		t.Errorf("hit+assign: a' = %d, want 1", got)
	}
	// Hit + action 2 (NoAction): passthrough.
	if got := evalCase(7, 7, 2); got != 7 {
		t.Errorf("hit+NoAction: a' = %d, want 7", got)
	}
	// Hit + unlisted action id: default (NoAction) → passthrough.
	if got := evalCase(7, 7, 9); got != 7 {
		t.Errorf("hit+unlisted: a' = %d, want 7", got)
	}
	// Miss: default → passthrough.
	if got := evalCase(7, 8, 1); got != 7 {
		t.Errorf("miss: a' = %d, want 7", got)
	}
	// The formula must mention the table's symbolic variables (Fig. 3's
	// t_table_key / t_action encoding).
	vars := map[string]int{}
	aOut.Vars(vars)
	if _, ok := vars["ingress.t.key_0"]; !ok {
		t.Error("formula does not reference the symbolic table key")
	}
	if _, ok := vars["ingress.t.action"]; !ok {
		t.Error("formula does not reference the symbolic action selector")
	}
	if len(b.TableVars) != 2 {
		t.Errorf("TableVars = %v, want key and action", b.TableVars)
	}
}

// buildEvalArgs constructs concrete evaluator arguments for the control's
// parameters from an SMT assignment using the sym input-naming convention.
func buildEvalArgs(params []ast.Param, m smt.Assignment) []eval.Value {
	var out []eval.Value
	for _, p := range params {
		out = append(out, buildEvalValue(p.Name, p.Type, m))
	}
	return out
}

func buildEvalValue(path string, t ast.Type, m smt.Assignment) eval.Value {
	switch t := t.(type) {
	case *ast.BitType:
		return &eval.BitVal{Width: t.Width, V: ast.MaskWidth(m[path], t.Width)}
	case *ast.BoolType:
		return &eval.BoolVal{V: m[path] == 1}
	case *ast.HeaderType:
		h := &eval.HeaderVal{T: t, Valid: m[path+".$valid"] == 1, F: map[string]eval.Value{}}
		for _, f := range t.Fields {
			h.F[f.Name] = buildEvalValue(path+"."+f.Name, f.Type, m)
		}
		return h
	case *ast.StructType:
		s := &eval.StructVal{T: t, F: map[string]eval.Value{}}
		for _, f := range t.Fields {
			s.F[f.Name] = buildEvalValue(path+"."+f.Name, f.Type, m)
		}
		return s
	default:
		panic("buildEvalValue: unsupported type")
	}
}

// buildTableConfig converts symbolic table-variable assignments into a
// concrete single-entry table configuration matching the Fig. 3 encoding.
func buildTableConfig(prog *ast.Program, ctrl *ast.ControlDecl, m smt.Assignment) eval.Config {
	cfg := eval.Config{}
	for _, tbl := range ctrl.Tables() {
		prefix := ctrl.Name + "." + tbl.Name
		key := make([]uint64, len(tbl.Keys))
		for i := range tbl.Keys {
			key[i] = m[prefixKey(prefix, i)]
		}
		idx := int(m[prefix+".action"])
		tc := &eval.TableConfig{}
		if idx >= 1 && idx <= len(tbl.Actions) && len(tbl.Keys) > 0 {
			name := tbl.Actions[idx-1].Name
			var args []uint64
			if ad, ok := ctrl.LocalByName(name).(*ast.ActionDecl); ok {
				for _, p := range ad.Params {
					args = append(args, m[prefix+"."+name+".arg_"+p.Name])
				}
			}
			tc.Entries = append(tc.Entries, eval.TableEntry{Key: key, Action: name, Args: args})
		}
		cfg[prefix] = tc
	}
	return cfg
}

func prefixKey(prefix string, i int) string {
	return prefix + ".key_" + string(rune('0'+i))
}

// diffPrograms is a corpus of control blocks exercising the constructs the
// paper's semantics cover; the differential test cross-checks sym against
// the concrete evaluator on random inputs.
var diffPrograms = []struct {
	name string
	src  string
}{
	{"arith", `
control ig(inout bit<8> x, inout bit<8> y) {
    apply {
        x = x + y * 8w3 - (x & y);
        y = (x | y) ^ (x << 8w2) |+| 8w7;
    }
}`},
	{"branch", `
control ig(inout bit<8> x, inout bit<8> y) {
    apply {
        if (x < y) {
            x = y |-| 8w3;
        } else if (x == y) {
            x = 8w0;
        } else {
            y = x ++ y[3:0] != 12w7 ? y : 8w1;
        }
    }
}`},
	{"slices", `
control ig(inout bit<8> x, inout bit<8> y) {
    apply {
        x[3:0] = y[7:4];
        y[7:6] = x[1:0];
        x = ~x;
    }
}`},
	{"calls", `
control ig(inout bit<8> x, inout bit<8> y) {
    bit<8> helper(inout bit<8> a, in bit<8> b) {
        a = a + b;
        if (a > 8w128) { return 8w255; }
        return a;
    }
    apply {
        y = helper(x, y);
    }
}`},
	{"exit", `
control ig(inout bit<8> x, inout bit<8> y) {
    action a(inout bit<8> v) {
        v = 8w3;
        if (y > 8w10) { exit; }
        v = v + 8w1;
    }
    apply {
        a(x);
        y = y + 8w1;
    }
}`},
	{"headers", `
header H { bit<8> a; bit<8> b; }
struct S { H h; }
control ig(inout S s, inout bit<8> y) {
    apply {
        if (s.h.isValid()) {
            y = s.h.a;
            s.h.setInvalid();
        } else {
            s.h.setValid();
            s.h.a = y;
            s.h.b = 8w9;
        }
    }
}`},
	{"table", `
header H { bit<8> a; bit<8> b; }
struct S { H h; }
control ig(inout S s) {
    action setb(bit<8> v) { s.h.b = v; }
    action inc() { s.h.a = s.h.a + 8w1; }
    table t {
        key = { s.h.a : exact; }
        actions = { setb; inc; NoAction; }
        default_action = inc();
    }
    apply { t.apply(); }
}`},
	{"switch", `
control ig(inout bit<8> x, inout bit<8> y) {
    apply {
        switch (x & 8w3) {
            8w0: { y = y + 8w1; }
            8w1: { y = y - 8w1; }
            default: { y = 8w0; }
        }
    }
}`},
	{"shortcircuit", `
control ig(inout bit<8> x, inout bit<8> y) {
    bool bump(inout bit<8> v) {
        v = v + 8w1;
        return v > 8w7;
    }
    apply {
        if (x > 8w100 && bump(y)) {
            x = 8w0;
        }
    }
}`},
	{"mux-nested", `
control ig(inout bit<8> x, inout bit<8> y) {
    apply {
        x = x > y ? (x == 8w255 ? y : x - y) : y - x;
    }
}`},
}

// TestDifferentialSymVsEval is the central soundness check: evaluating the
// symbolic functional form under a concrete assignment must equal running
// the concrete interpreter with the corresponding inputs and table state.
func TestDifferentialSymVsEval(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, tc := range diffPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := parser.Parse(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if err := types.Check(prog); err != nil {
				t.Fatalf("check: %v", err)
			}
			ctrl := prog.Control("ig")
			block, err := sym.ExecControl(prog, ctrl)
			if err != nil {
				t.Fatalf("sym: %v", err)
			}
			inputs := block.InputVars()

			for trial := 0; trial < 50; trial++ {
				m := smt.Assignment{}
				for name, w := range inputs {
					if strings.HasPrefix(name, "havoc_") {
						m[name] = 0 // zero-undef policy on both sides
						continue
					}
					if w == 0 {
						m[name] = r.Uint64() & 1
					} else {
						m[name] = r.Uint64() & ((1 << uint(w)) - 1)
					}
				}

				// Concrete run.
				cfg := buildTableConfig(prog, ctrl, m)
				args := buildEvalArgs(ctrl.Params, m)
				in := eval.New(prog, cfg)
				if err := in.ExecControl(ctrl, args); err != nil {
					t.Fatalf("trial %d: eval: %v", trial, err)
				}

				// Symbolic run evaluated under m.
				for i, o := range block.Out {
					// Find the matching eval output.
					var got eval.Value
					for j, p := range ctrl.Params {
						if p.Name == o.Name {
							got = args[j]
						}
					}
					if got == nil {
						t.Fatalf("output %s not found among params", o.Name)
					}
					want := buildSymConcrete(o.Val, m)
					if !eval.Equal(got, want) {
						t.Fatalf("trial %d output %d (%s):\n eval: %s\n sym:  %s\n assignment: %v",
							trial, i, o.Name, got, want, m)
					}
				}
			}
		})
	}
}

// buildSymConcrete evaluates a symbolic value under an assignment,
// producing a concrete eval.Value for comparison.
func buildSymConcrete(v sym.Value, m smt.Assignment) eval.Value {
	switch v := v.(type) {
	case *sym.BitVal:
		return &eval.BitVal{Width: v.T.W, V: smt.Eval(v.T, m)}
	case *sym.BoolVal:
		return &eval.BoolVal{V: smt.Eval(v.T, m) == 1}
	case *sym.HeaderVal:
		h := &eval.HeaderVal{T: v.Type, Valid: smt.Eval(v.Valid, m) == 1, F: map[string]eval.Value{}}
		for name, fv := range v.F {
			h.F[name] = buildSymConcrete(fv, m)
		}
		return h
	case *sym.StructVal:
		s := &eval.StructVal{T: v.Type, F: map[string]eval.Value{}}
		for name, fv := range v.F {
			s.F[name] = buildSymConcrete(fv, m)
		}
		return s
	default:
		panic("buildSymConcrete: unknown value")
	}
}

// TestEquivalentSelf checks that every corpus block is equivalent to
// itself (the no-bug baseline of translation validation).
func TestEquivalentSelf(t *testing.T) {
	for _, tc := range diffPrograms {
		prog, err := parser.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if err := types.Check(prog); err != nil {
			t.Fatalf("%s: check: %v", tc.name, err)
		}
		ctrl := prog.Control("ig")
		a, err := sym.ExecControl(prog, ctrl)
		if err != nil {
			t.Fatalf("%s: sym: %v", tc.name, err)
		}
		b, err := sym.ExecControl(prog, ctrl)
		if err != nil {
			t.Fatalf("%s: sym: %v", tc.name, err)
		}
		eq := sym.Equivalent(a, b)
		// Evaluate under a handful of random assignments; self-equivalence
		// must hold everywhere.
		r := rand.New(rand.NewSource(1))
		inputs := a.InputVars()
		for trial := 0; trial < 20; trial++ {
			m := smt.Assignment{}
			for name, w := range inputs {
				if w == 0 {
					m[name] = r.Uint64() & 1
				} else {
					m[name] = r.Uint64() & ((1 << uint(w)) - 1)
				}
			}
			if smt.Eval(eq, m) != 1 {
				t.Fatalf("%s: self-equivalence fails under %v", tc.name, m)
			}
		}
	}
}

func TestParserSymbolic(t *testing.T) {
	src := `
header Eth { bit<16> etype; }
header Ip { bit<8> ttl; }
struct S { Eth eth; Ip ip; }
parser p(packet pkt, out S hdr) {
    state start {
        pkt.extract(hdr.eth);
        transition select(hdr.eth.etype) {
            16w0x800 : ip;
            default : accept;
        }
    }
    state ip {
        pkt.extract(hdr.ip);
        transition accept;
    }
}
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := types.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	b, err := sym.ExecParser(prog, prog.Parser("p"))
	if err != nil {
		t.Fatalf("sym parser: %v", err)
	}
	if b.PacketBits != 24 {
		t.Errorf("PacketBits = %d, want 24", b.PacketBits)
	}
	var flat []sym.NamedTerm
	sym.Flatten("hdr", b.Out[0].Val, &flat)
	terms := map[string]*smt.Term{}
	for _, nt := range flat {
		terms[nt.Name] = nt.Term
	}

	// IPv4 packet 0x0800 + ttl 64, long enough: ip valid, ttl extracted.
	m := smt.Assignment{"pkt_len": 24}
	// etype = 0x0800: bits 0..15 MSB first → bit 4 set (0x0800 = 0000100000000000).
	for i := 0; i < 16; i++ {
		if (0x0800>>(15-i))&1 == 1 {
			m["pkt_"+itoa(i)] = 1
		}
	}
	// ttl = 64: bits 16..23 MSB first.
	for i := 0; i < 8; i++ {
		if (64>>(7-i))&1 == 1 {
			m["pkt_"+itoa(16+i)] = 1
		}
	}
	if smt.Eval(b.Reject, m) != 0 {
		t.Fatal("full packet rejected")
	}
	if smt.Eval(terms["hdr.ip.$valid"], m) != 1 {
		t.Error("ip not valid for etype 0x0800")
	}
	if got := smt.Eval(terms["hdr.ip.ttl"], m); got != 64 {
		t.Errorf("ttl = %d, want 64", got)
	}

	// Same bytes but length 16: the ip extract must reject.
	m["pkt_len"] = 16
	if smt.Eval(b.Reject, m) != 1 {
		t.Error("short packet not rejected")
	}

	// Non-IP etype with length 16: accepted, ip invalid.
	m2 := smt.Assignment{"pkt_len": 16}
	for i := 0; i < 16; i++ {
		if (0x86DD>>(15-i))&1 == 1 {
			m2["pkt_"+itoa(i)] = 1
		}
	}
	if smt.Eval(b.Reject, m2) != 0 {
		t.Error("non-ip packet rejected")
	}
	if smt.Eval(terms["hdr.ip.$valid"], m2) != 0 {
		t.Error("ip marked valid for non-ip packet")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestParserLoopDetected(t *testing.T) {
	src := `
header Eth { bit<16> etype; }
struct S { Eth eth; }
parser p(packet pkt, out S hdr) {
    state start {
        transition loop;
    }
    state loop {
        transition start;
    }
}
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := types.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	if _, err := sym.ExecParser(prog, prog.Parser("p")); err == nil {
		t.Fatal("parser loop not detected")
	}
}

// TestDifferentialOnGeneratedPrograms extends the differential oracle to
// random generator output: for every generated ingress/egress control,
// evaluating the symbolic form under random assignments must match the
// concrete interpreter. This is the §5.2 co-evolution loop ("we
// co-evolved the interpreter with our generator") as a standing test.
func TestDifferentialOnGeneratedPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("breadth test")
	}
	r := rand.New(rand.NewSource(77))
	for seed := int64(0); seed < 25; seed++ {
		prog := generator.Generate(generator.DefaultConfig(seed))
		if err := types.Check(prog); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, ctrl := range prog.Controls() {
			// Deparser-style controls need packet state; skip them here
			// (covered by the pipeline tests).
			hasPacket := false
			for _, p := range ctrl.Params {
				if _, ok := p.Type.(*ast.PacketType); ok {
					hasPacket = true
				}
			}
			if hasPacket {
				continue
			}
			block, err := sym.ExecControl(prog, ctrl)
			if err != nil {
				t.Fatalf("seed %d %s: sym: %v", seed, ctrl.Name, err)
			}
			inputs := block.InputVars()
			for trial := 0; trial < 6; trial++ {
				m := smt.Assignment{}
				for name, w := range inputs {
					if strings.HasPrefix(name, "havoc_") {
						m[name] = 0
						continue
					}
					if w == 0 {
						m[name] = r.Uint64() & 1
					} else {
						m[name] = r.Uint64() & ((1 << uint(w)) - 1)
					}
				}
				cfg := buildTableConfig(prog, ctrl, m)
				args := buildEvalArgs(ctrl.Params, m)
				in := eval.New(prog, cfg)
				if err := in.ExecControl(ctrl, args); err != nil {
					t.Fatalf("seed %d %s trial %d: eval: %v", seed, ctrl.Name, trial, err)
				}
				for _, o := range block.Out {
					var got eval.Value
					for j, p := range ctrl.Params {
						if p.Name == o.Name {
							got = args[j]
						}
					}
					want := buildSymConcrete(o.Val, m)
					if !eval.Equal(got, want) {
						t.Fatalf("seed %d %s trial %d output %s:\n eval: %s\n sym:  %s",
							seed, ctrl.Name, trial, o.Name, got, want)
					}
				}
			}
		}
	}
}
