// Symbolic execution against a black-box back end (Figure 4): generate
// input/output packet tests from the program's formula, run them through
// the proprietary Tofino stand-in whose back end carries a seeded defect,
// and observe the packet mismatch — without ever seeing the compiler's
// intermediate representation.
//
// Run with: go run ./examples/symbolic-execution
package main

import (
	"fmt"
	"log"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/types"
	"gauntlet/internal/target/device"
	"gauntlet/internal/testgen"
)

const program = `
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
            hdr.eth.val = hdr.eth.val |+| 8w200;
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

func main() {
	prog, err := parser.Parse(program)
	if err != nil {
		log.Fatal(err)
	}
	if err := types.Check(prog); err != nil {
		log.Fatal(err)
	}

	// Test generation works on the *input* program: its symbolic pipeline
	// predicts the output packet for each path (§6.2).
	cases, err := testgen.Generate(prog, testgen.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d path-covering test cases:\n", len(cases))
	for _, c := range cases {
		fmt.Println(" ", c.Summary())
	}

	// Compile for the black-box target with a seeded back-end defect:
	// saturating adds lowered as wrapping adds.
	bug := bugs.Load().ByID("TOF-S-03")
	fmt.Printf("\nseeded back-end defect: %s — %s\n", bug.ID, bug.Description)
	pipeline, err := core.Pipeline(bug.Platform, bug)
	if err != nil {
		log.Fatal(err)
	}
	res, err := compiler.New(pipeline...).Compile(prog)
	if err != nil {
		log.Fatal(err)
	}
	dev := device.New(res.Final)

	// PTF-style run: inject, compare against the symbolic expectation.
	// This is the loop device.Run implements for the oracle, spelled out.
	found := 0
	for _, c := range cases {
		obs, err := dev.Inject(c.Config, c.Packet)
		if err != nil {
			log.Fatal(err)
		}
		want := device.Result{Drop: c.ExpectDrop, Packet: c.ExpectPacket}
		if !device.Equal(want, obs) {
			found++
			fmt.Printf("\nMISMATCH on %s\n  expected %x\n  observed %x\n",
				c.Summary(), c.ExpectPacket, obs.Packet)
		}
	}
	if found == 0 {
		log.Fatal("expected the defect to surface as a packet mismatch")
	}
	fmt.Printf("\nsemantic bug detected through packets alone (%d mismatching cases)\n", found)
}
