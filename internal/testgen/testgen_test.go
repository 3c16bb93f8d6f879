package testgen_test

import (
	"testing"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/generator"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/types"
	"gauntlet/internal/target/device"
	"gauntlet/internal/testgen"
)

// runOnReference compiles prog with the BMv2 reference pipeline and runs
// the cases through the device's packet-test loop, returning the
// mismatches.
func runOnReference(prog *ast.Program, cases []testgen.Case) ([]string, error) {
	passes, err := core.Pipeline(bugs.BMv2)
	if err != nil {
		return nil, err
	}
	res, err := compiler.New(passes...).Compile(prog)
	if err != nil {
		return nil, err
	}
	mismatches, _, err := device.New(res.Final).Run(cases)
	return mismatches, err
}

const twoPath = `
header Eth { bit<8> kind; bit<8> val; }
struct Headers { Eth eth; }
struct standard_metadata_t { bit<9> ingress_port; bit<9> egress_spec; }
parser p(packet pkt, out Headers hdr, inout standard_metadata_t sm) {
    state start {
        pkt.extract(hdr.eth);
        transition accept;
    }
}
control ingress(inout Headers hdr, inout standard_metadata_t sm) {
    apply {
        if (hdr.eth.kind == 8w1) {
            hdr.eth.val = hdr.eth.val + 8w10;
        } else {
            hdr.eth.val = ~hdr.eth.val;
        }
    }
}
control egress(inout Headers hdr, inout standard_metadata_t sm) {
    apply { }
}
control dep(packet pkt, in Headers hdr) {
    apply { pkt.emit(hdr.eth); }
}
V1Switch(p, ingress, egress, dep) main;
`

func mustProg(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := types.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog
}

// TestCasesCoverPaths checks path coverage: both branch polarities and
// the short-packet drop path must appear.
func TestCasesCoverPaths(t *testing.T) {
	prog := mustProg(t, twoPath)
	cases, err := testgen.Generate(prog, testgen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sawKind1, sawOther, sawDrop bool
	for _, c := range cases {
		if c.ExpectDrop {
			sawDrop = true
			continue
		}
		if len(c.Packet) >= 1 && c.Packet[0] == 1 {
			sawKind1 = true
		} else {
			sawOther = true
		}
	}
	if !sawKind1 || !sawOther || !sawDrop {
		t.Fatalf("path coverage incomplete: kind1=%v other=%v drop=%v (%d cases)",
			sawKind1, sawOther, sawDrop, len(cases))
	}
}

// TestExpectationsMatchReferenceTarget is the §6 soundness baseline: on a
// correctly compiled target, every generated expectation must hold.
func TestExpectationsMatchReferenceTarget(t *testing.T) {
	prog := mustProg(t, twoPath)
	cases, err := testgen.Generate(prog, testgen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mismatches, err := runOnReference(prog, cases)
	if err != nil {
		t.Fatal(err)
	}
	if len(mismatches) > 0 {
		t.Fatalf("reference target disagrees with symbolic expectations:\n%v", mismatches)
	}
}

// TestExpectationsOnGeneratedPrograms extends the baseline to random
// programs with tables: reference compilation must satisfy every case.
func TestExpectationsOnGeneratedPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-heavy")
	}
	for seed := int64(0); seed < 6; seed++ {
		prog := generator.Generate(generator.DefaultConfig(seed))
		if err := types.Check(prog); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts := testgen.DefaultOptions()
		opts.MaxCases = 12
		opts.MaxConflicts = 20000
		cases, err := testgen.Generate(prog, opts)
		if err != nil {
			t.Fatalf("seed %d: testgen: %v", seed, err)
		}
		mismatches, err := runOnReference(prog, cases)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(mismatches) > 0 {
			t.Fatalf("seed %d: %d mismatches on the reference target:\n%v",
				seed, len(mismatches), mismatches)
		}
	}
}

// TestNonZeroPreference checks the §6.2 behaviour: generated inputs avoid
// all-zero fields when the path allows it.
func TestNonZeroPreference(t *testing.T) {
	prog := mustProg(t, twoPath)
	cases, err := testgen.Generate(prog, testgen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.ExpectDrop || len(c.Packet) < 2 {
			continue
		}
		if c.Packet[1] == 0 {
			t.Errorf("case %s: val field is zero despite non-zero preference", c.Summary())
		}
	}
}

// TestTableConfigExtraction checks that symbolic table state turns into
// concrete entries driving the right action.
func TestTableConfigExtraction(t *testing.T) {
	src := `
header Eth { bit<8> kind; bit<8> val; }
struct Headers { Eth eth; }
struct standard_metadata_t { bit<9> ingress_port; }
parser p(packet pkt, out Headers hdr, inout standard_metadata_t sm) {
    state start {
        pkt.extract(hdr.eth);
        transition accept;
    }
}
control ingress(inout Headers hdr, inout standard_metadata_t sm) {
    action setv(bit<8> v) { hdr.eth.val = v; }
    table t {
        key = { hdr.eth.kind : exact; }
        actions = { setv; NoAction; }
        default_action = NoAction();
    }
    apply { t.apply(); }
}
control egress(inout Headers hdr, inout standard_metadata_t sm) {
    apply { }
}
control dep(packet pkt, in Headers hdr) {
    apply { pkt.emit(hdr.eth); }
}
V1Switch(p, ingress, egress, dep) main;
`
	prog := mustProg(t, src)
	cases, err := testgen.Generate(prog, testgen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// At least one case must install a table entry binding setv.
	found := false
	for _, c := range cases {
		if tc := c.Config["ingress.t"]; tc != nil && len(tc.Entries) > 0 && tc.Entries[0].Action == "setv" {
			found = true
		}
	}
	if !found {
		t.Fatal("no generated case exercises the setv entry")
	}
	// And all of them must hold on the reference target.
	mismatches, err := runOnReference(prog, cases)
	if err != nil {
		t.Fatal(err)
	}
	if len(mismatches) > 0 {
		t.Fatalf("mismatches on reference target: %v", mismatches)
	}
}
