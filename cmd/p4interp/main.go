// Command p4interp compiles a P4 program with the BMv2 reference pipeline
// (core.Pipeline) and runs a packet through the compiled program on the
// software-switch simulator, or generates symbolic test packets for it
// and runs them with the packet-test loop the oracle uses (§6).
//
// Usage:
//
//	p4interp -pkt 0807161718 program.p4       inject one packet (hex)
//	p4interp -gen program.p4                  generate + run test cases
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/types"
	"gauntlet/internal/target/device"
	"gauntlet/internal/testgen"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p4interp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pktHex := fs.String("pkt", "", "input packet as hex bytes")
	gen := fs.Bool("gen", false, "generate symbolic test cases and run them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: p4interp [-pkt HEX | -gen] program.p4")
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "p4interp: %v\n", err)
		return 1
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fatal(err)
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		return fatal(err)
	}
	if err := types.Check(prog); err != nil {
		return fatal(err)
	}
	passes, _ := core.Pipeline(bugs.BMv2) // without defects it cannot fail
	res, err := compiler.New(passes...).Compile(prog)
	if err != nil {
		return fatal(err)
	}
	dev := device.New(res.Final)

	switch {
	case *gen:
		cases, err := testgen.Generate(prog, testgen.DefaultOptions())
		if err != nil {
			return fatal(err)
		}
		mismatches, _, err := dev.Run(cases)
		if err != nil {
			return fatal(err)
		}
		for _, c := range cases {
			fmt.Fprintln(stdout, "case:", c.Summary())
		}
		if len(mismatches) > 0 {
			for _, m := range mismatches {
				fmt.Fprintln(stdout, "MISMATCH:", m)
			}
			return 1
		}
		fmt.Fprintf(stdout, "%d test cases, all match the symbolic semantics\n", len(cases))
	case *pktHex != "":
		pkt, err := hex.DecodeString(*pktHex)
		if err != nil {
			return fatal(err)
		}
		obs, err := dev.Inject(nil, pkt)
		if err != nil {
			return fatal(err)
		}
		if obs.Drop {
			fmt.Fprintln(stdout, "packet dropped (parser reject)")
		} else {
			fmt.Fprintf(stdout, "output packet: %x\n", obs.Packet)
		}
	default:
		fmt.Fprintln(stderr, "p4interp: need -pkt or -gen")
		return 2
	}
	return 0
}
