package eval_test

import (
	"errors"
	"testing"
	"testing/quick"

	"gauntlet/internal/bitstream"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/eval"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/types"
)

// run parses, checks and executes a single-control program named "ig" with
// the given arguments.
func run(t *testing.T, src string, cfg eval.Config, args ...eval.Value) []eval.Value {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := types.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	in := eval.New(prog, cfg)
	ctrl := prog.Control("ig")
	if ctrl == nil {
		t.Fatal("no control ig")
	}
	if err := in.ExecControl(ctrl, args); err != nil {
		t.Fatalf("exec: %v", err)
	}
	return args
}

func bit(w int, v uint64) *eval.BitVal { return &eval.BitVal{Width: w, V: v} }

func TestArith(t *testing.T) {
	cases := []struct {
		expr string
		in   uint64
		want uint64
	}{
		{"x + 8w1", 255, 0},
		{"x - 8w1", 0, 255},
		{"x * 8w3", 100, 44}, // 300 mod 256
		{"x |+| 8w200", 100, 255},
		{"x |-| 8w200", 100, 0},
		{"x & 8w0xF", 0xAB, 0xB},
		{"x | 8w0xF0", 0xB, 0xFB},
		{"x ^ 8w0xFF", 0xAA, 0x55},
		{"~x", 0x0F, 0xF0},
		{"-x", 1, 255},
		{"x << 8w2", 0x81, 0x04},
		{"x >> 8w2", 0x81, 0x20},
		{"x << 8w9", 0xFF, 0},   // shift past width
		{"x >> 8w200", 0xFF, 0}, // shift past width
		{"x[7:4] ++ x[3:0]", 0x5A, 0x5A},
		{"x[3:0] ++ x[7:4]", 0x5A, 0xA5},
		{"(bit<8>) x[3:0]", 0xAB, 0x0B},
	}
	for _, tc := range cases {
		src := `
control ig(inout bit<8> x) {
    apply { x = ` + tc.expr + `; }
}`
		got := run(t, src, nil, bit(8, tc.in))
		if b := got[0].(*eval.BitVal); b.V != tc.want {
			t.Errorf("%s with x=%d: got %d, want %d", tc.expr, tc.in, b.V, tc.want)
		}
	}
}

func TestComparisonsAndMux(t *testing.T) {
	src := `
control ig(inout bit<8> x) {
    apply {
        bool lt = x < 8w10;
        bool ge = x >= 8w10;
        x = lt && !ge ? 8w1 : 8w0;
    }
}`
	if got := run(t, src, nil, bit(8, 5))[0].(*eval.BitVal).V; got != 1 {
		t.Errorf("x=5: got %d, want 1", got)
	}
	if got := run(t, src, nil, bit(8, 10))[0].(*eval.BitVal).V; got != 0 {
		t.Errorf("x=10: got %d, want 0", got)
	}
}

func TestCopyInCopyOut(t *testing.T) {
	// Fig. 5d shape: a slice passed as inout while the action assigns a
	// disjoint slice of the same variable. The assignment inside the body
	// must persist, and the sliced portion must be copied back.
	src := `
header H { bit<8> a; }
struct S { H h; }
control ig(inout S hdr) {
    action a(inout bit<7> val) {
        hdr.h.a[0:0] = 1w0;
        val = 7w127;
    }
    apply {
        hdr.h.a = 8w255;
        a(hdr.h.a[7:1]);
    }
}`
	hdrT := &ast.HeaderType{Name: "H", Fields: []ast.Field{{Name: "a", Type: &ast.BitType{Width: 8}}}}
	structT := &ast.StructType{Name: "S", Fields: []ast.Field{{Name: "h", Type: hdrT}}}
	s := eval.NewValue(structT).(*eval.StructVal)
	s.F["h"].(*eval.HeaderVal).Valid = true
	got := run(t, src, nil, s)
	a := got[0].(*eval.StructVal).F["h"].(*eval.HeaderVal).F["a"].(*eval.BitVal)
	// Copy-in: val = 1111111b. Body: bit 0 of a cleared (a=0xFE), then
	// val=127 unchanged. Copy-out: a[7:1]=127 → a = 1111111_0 = 0xFE.
	if a.V != 0xFE {
		t.Errorf("a = %#x, want 0xFE", a.V)
	}
}

func TestExitRespectsCopyOut(t *testing.T) {
	// Fig. 5f: exit inside an action must still copy out inout params.
	src := `
header Eth { bit<16> eth_type; }
struct S { Eth eth; }
control ig(inout S h) {
    action a(inout bit<16> val) {
        val = 16w3;
        exit;
    }
    apply {
        a(h.eth.eth_type);
        h.eth.eth_type = 16w99; // unreachable: exit terminates the control
    }
}`
	ethT := &ast.HeaderType{Name: "Eth", Fields: []ast.Field{{Name: "eth_type", Type: &ast.BitType{Width: 16}}}}
	structT := &ast.StructType{Name: "S", Fields: []ast.Field{{Name: "eth", Type: ethT}}}
	s := eval.NewValue(structT).(*eval.StructVal)
	s.F["eth"].(*eval.HeaderVal).Valid = true
	got := run(t, src, nil, s)
	v := got[0].(*eval.StructVal).F["eth"].(*eval.HeaderVal).F["eth_type"].(*eval.BitVal)
	if v.V != 3 {
		t.Errorf("eth_type = %d, want 3 (exit must respect copy-in/copy-out)", v.V)
	}
}

func TestFunctionReturn(t *testing.T) {
	src := `
control ig(inout bit<8> x) {
    bit<8> double(in bit<8> v) {
        return v + v;
    }
    apply {
        x = double(x) + 8w1;
    }
}`
	if got := run(t, src, nil, bit(8, 20))[0].(*eval.BitVal).V; got != 41 {
		t.Errorf("got %d, want 41", got)
	}
}

func TestFunctionInoutWithReturn(t *testing.T) {
	// Fig. 5a shape: a function with an inout param and a return — the
	// inout copy-out must still happen.
	src := `
control ig(inout bit<8> x) {
    bit<8> test(inout bit<8> v) {
        v = v + 8w1;
        return v;
    }
    apply {
        bit<8> r = test(x);
        x = x + r;
    }
}`
	// x=5: after test, x=6, r=6, then x=12.
	if got := run(t, src, nil, bit(8, 5))[0].(*eval.BitVal).V; got != 12 {
		t.Errorf("got %d, want 12", got)
	}
}

func TestOutParamUndefined(t *testing.T) {
	src := `
control ig(inout bit<8> x) {
    action a(out bit<8> v) {
        v = v + 8w1; // reads undefined v (zero under BMv2 policy)
    }
    apply {
        a(x);
    }
}`
	if got := run(t, src, nil, bit(8, 77))[0].(*eval.BitVal).V; got != 1 {
		t.Errorf("got %d, want 1 (out param zero-initialized by policy)", got)
	}
}

func TestTableApply(t *testing.T) {
	src := `
header H { bit<8> a; bit<8> b; }
struct S { H h; }
control ig(inout S hdr) {
    action assign() { hdr.h.a = 8w1; }
    action setb(bit<8> v) { hdr.h.b = v; }
    table t {
        key = { hdr.h.a : exact; }
        actions = { assign; setb; NoAction; }
        default_action = NoAction();
    }
    apply { t.apply(); }
}`
	hdrT := &ast.HeaderType{Name: "H", Fields: []ast.Field{
		{Name: "a", Type: &ast.BitType{Width: 8}},
		{Name: "b", Type: &ast.BitType{Width: 8}},
	}}
	structT := &ast.StructType{Name: "S", Fields: []ast.Field{{Name: "h", Type: hdrT}}}
	mk := func(a uint64) *eval.StructVal {
		s := eval.NewValue(structT).(*eval.StructVal)
		h := s.F["h"].(*eval.HeaderVal)
		h.Valid = true
		h.F["a"] = bit(8, a)
		return s
	}
	cfg := eval.Config{"ig.t": &eval.TableConfig{Entries: []eval.TableEntry{
		{Key: []uint64{7}, Action: "assign"},
		{Key: []uint64{9}, Action: "setb", Args: []uint64{42}},
	}}}

	got := run(t, src, cfg, mk(7))
	h := got[0].(*eval.StructVal).F["h"].(*eval.HeaderVal)
	if h.F["a"].(*eval.BitVal).V != 1 {
		t.Errorf("hit on key 7: a = %v, want 1", h.F["a"])
	}

	got = run(t, src, cfg, mk(9))
	h = got[0].(*eval.StructVal).F["h"].(*eval.HeaderVal)
	if h.F["b"].(*eval.BitVal).V != 42 {
		t.Errorf("hit on key 9: b = %v, want 42 (control-plane arg)", h.F["b"])
	}

	got = run(t, src, cfg, mk(8))
	h = got[0].(*eval.StructVal).F["h"].(*eval.HeaderVal)
	if h.F["a"].(*eval.BitVal).V != 8 {
		t.Errorf("miss: a = %v, want unchanged 8", h.F["a"])
	}
}

func TestHeaderValidity(t *testing.T) {
	src := `
header H { bit<8> a; }
struct S { H h; }
control ig(inout S hdr, inout bit<8> out1) {
    apply {
        if (hdr.h.isValid()) {
            out1 = 8w1;
        } else {
            hdr.h.setValid();
            hdr.h.a = 8w5;
            out1 = 8w2;
        }
    }
}`
	hdrT := &ast.HeaderType{Name: "H", Fields: []ast.Field{{Name: "a", Type: &ast.BitType{Width: 8}}}}
	structT := &ast.StructType{Name: "S", Fields: []ast.Field{{Name: "h", Type: hdrT}}}
	s := eval.NewValue(structT).(*eval.StructVal)
	got := run(t, src, nil, s, bit(8, 0))
	h := got[0].(*eval.StructVal).F["h"].(*eval.HeaderVal)
	if !h.Valid || h.F["a"].(*eval.BitVal).V != 5 {
		t.Errorf("header not validated/assigned: %v", h)
	}
	if got[1].(*eval.BitVal).V != 2 {
		t.Errorf("out1 = %v, want 2", got[1])
	}
}

func TestParserExtractAndDeparserEmit(t *testing.T) {
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
control dep(packet pkt, in S hdr) {
    apply {
        pkt.emit(hdr.eth);
        pkt.emit(hdr.ip);
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
	in := eval.New(prog, nil)

	ethT := &ast.HeaderType{Name: "Eth", Fields: []ast.Field{{Name: "etype", Type: &ast.BitType{Width: 16}}}}
	ipT := &ast.HeaderType{Name: "Ip", Fields: []ast.Field{{Name: "ttl", Type: &ast.BitType{Width: 8}}}}
	structT := &ast.StructType{Name: "S", Fields: []ast.Field{
		{Name: "eth", Type: ethT}, {Name: "ip", Type: ipT},
	}}

	// IPv4 packet: etype 0x0800, ttl 64.
	pkt := &eval.PacketVal{R: bitstream.NewReader([]byte{0x08, 0x00, 64})}
	hdr := eval.NewValue(structT)
	args := []eval.Value{pkt, hdr}
	if err := in.ExecParser(prog.Parser("p"), args); err != nil {
		t.Fatalf("parser: %v", err)
	}
	s := args[1].(*eval.StructVal)
	if !s.F["ip"].(*eval.HeaderVal).Valid {
		t.Fatal("ip header not extracted")
	}
	if ttl := s.F["ip"].(*eval.HeaderVal).F["ttl"].(*eval.BitVal); ttl.V != 64 {
		t.Errorf("ttl = %d, want 64", ttl.V)
	}

	// Non-IP packet: only ethernet extracted.
	pkt2 := &eval.PacketVal{R: bitstream.NewReader([]byte{0x86, 0xDD, 64})}
	hdr2 := eval.NewValue(structT)
	args2 := []eval.Value{pkt2, hdr2}
	if err := in.ExecParser(prog.Parser("p"), args2); err != nil {
		t.Fatalf("parser: %v", err)
	}
	if args2[1].(*eval.StructVal).F["ip"].(*eval.HeaderVal).Valid {
		t.Error("ip header should be invalid for etype 0x86DD")
	}

	// Short packet rejects.
	pkt3 := &eval.PacketVal{R: bitstream.NewReader([]byte{0x08})}
	hdr3 := eval.NewValue(structT)
	if err := in.ExecParser(prog.Parser("p"), []eval.Value{pkt3, hdr3}); !errors.Is(err, eval.ErrReject) {
		t.Errorf("short packet: err = %v, want ErrReject", err)
	}

	// Deparse the first packet back.
	w := bitstream.NewWriter()
	out := &eval.PacketVal{W: w}
	if err := in.ExecControl(prog.Control("dep"), []eval.Value{out, s}); err != nil {
		t.Fatalf("deparser: %v", err)
	}
	got := w.Bytes()
	want := []byte{0x08, 0x00, 64}
	if len(got) != len(want) {
		t.Fatalf("deparsed %x, want %x", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deparsed %x, want %x", got, want)
		}
	}
}

func TestSwitchStmt(t *testing.T) {
	src := `
control ig(inout bit<8> x) {
    apply {
        switch (x) {
            8w1: { x = 8w10; }
            8w2: { x = 8w20; }
            default: { x = 8w99; }
        }
    }
}`
	if got := run(t, src, nil, bit(8, 2))[0].(*eval.BitVal).V; got != 20 {
		t.Errorf("switch(2): got %d, want 20", got)
	}
	if got := run(t, src, nil, bit(8, 7))[0].(*eval.BitVal).V; got != 99 {
		t.Errorf("switch(7): got %d, want 99", got)
	}
}

func TestShortCircuitSideEffects(t *testing.T) {
	// The right operand of && must not execute when the left is false.
	src := `
control ig(inout bit<8> x) {
    bool bump(inout bit<8> v) {
        v = v + 8w1;
        return true;
    }
    apply {
        if (x > 8w100 && bump(x)) {
            x = x + 8w0;
        }
    }
}`
	if got := run(t, src, nil, bit(8, 5))[0].(*eval.BitVal).V; got != 5 {
		t.Errorf("short circuit violated: x = %d, want 5", got)
	}
	if got := run(t, src, nil, bit(8, 101))[0].(*eval.BitVal).V; got != 102 {
		t.Errorf("rhs not evaluated: x = %d, want 102", got)
	}
}

// TestArithmeticIdentitiesProperty property-checks interpreter arithmetic
// against direct Go computation across random operands.
func TestArithmeticIdentitiesProperty(t *testing.T) {
	run8 := func(expr string, x, y uint64) uint64 {
		src := `
control ig(inout bit<8> a, inout bit<8> b, inout bit<8> r) {
    apply { r = ` + expr + `; }
}`
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if err := types.Check(prog); err != nil {
			t.Fatalf("check: %v", err)
		}
		in := eval.New(prog, nil)
		args := []eval.Value{bit(8, x), bit(8, y), bit(8, 0)}
		if err := in.ExecControl(prog.Control("ig"), args); err != nil {
			t.Fatalf("exec: %v", err)
		}
		return args[2].(*eval.BitVal).V
	}
	f := func(xr, yr uint8) bool {
		x, y := uint64(xr), uint64(yr)
		checks := []struct {
			expr string
			want uint64
		}{
			{"a + b", (x + y) & 0xFF},
			{"a - b", (x - y) & 0xFF},
			{"a * b", (x * y) & 0xFF},
			{"a & b", x & y},
			{"a | b", x | y},
			{"a ^ b", x ^ y},
			{"~a", ^x & 0xFF},
			{"-a", (-x) & 0xFF},
			{"(a ++ b)[7:0]", y},
			{"(a ++ b)[15:8]", x},
			{"a |-| b", satSub8(x, y)},
		}
		for _, c := range checks {
			if run8(c.expr, x, y) != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func satSub8(x, y uint64) uint64 {
	if x < y {
		return 0
	}
	return x - y
}

// TestCopyInCopyOutProperty: for random values, calling an action that
// swaps two inout parameters behaves like a Go swap.
func TestCopyInCopyOutProperty(t *testing.T) {
	src := `
control ig(inout bit<8> x, inout bit<8> y) {
    action swap(inout bit<8> a, inout bit<8> b) {
        bit<8> t = a;
        a = b;
        b = t;
    }
    apply { swap(x, y); }
}`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := types.Check(prog); err != nil {
		t.Fatal(err)
	}
	f := func(xr, yr uint8) bool {
		in := eval.New(prog, nil)
		args := []eval.Value{bit(8, uint64(xr)), bit(8, uint64(yr))}
		if err := in.ExecControl(prog.Control("ig"), args); err != nil {
			return false
		}
		return args[0].(*eval.BitVal).V == uint64(yr) && args[1].(*eval.BitVal).V == uint64(xr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
