// Command p4test compiles a P4 program through the reference pipeline
// (core.Pipeline: the front and mid end, then the BMv2 back end, or the
// Tofino one with -tofino), optionally emitting the program after every
// pass that changed it (the instrumentation Gauntlet's translation
// validation consumes, §5.2) and optionally running translation
// validation across the snapshots.
//
// Usage:
//
//	p4test [-dump] [-validate] [-tofino] program.p4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/types"
	"gauntlet/internal/validate"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p4test", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dump := fs.Bool("dump", false, "print the program after every pass that changed it")
	doValidate := fs.Bool("validate", false, "translation-validate consecutive snapshots")
	useTofino := fs.Bool("tofino", false, "compile with the Tofino back end instead of BMv2's")
	maxConflicts := fs.Int("max-conflicts", 200000, "solver conflict budget per equivalence query")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: p4test [-dump] [-validate] program.p4")
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "p4test: %v\n", err)
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

	platform := bugs.BMv2
	if *useTofino {
		platform = bugs.Tofino
	}
	passes, _ := core.Pipeline(platform) // without defects it cannot fail
	res, err := compiler.New(passes...).Compile(prog)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(stdout, "compiled: %d passes changed the program\n", len(res.Snapshots)-1)
	if *dump {
		for _, s := range res.Snapshots {
			fmt.Fprintf(stdout, "// ======== after %s (hash %016x) ========\n%s\n", s.Pass, s.Hash, s.Text)
		}
	}
	if *doValidate {
		verdicts, err := validate.Snapshots(res, validate.Options{MaxConflicts: *maxConflicts})
		if err != nil {
			return fatal(err)
		}
		fails := validate.Failures(verdicts)
		for _, v := range verdicts {
			fmt.Fprintln(stdout, " ", v)
		}
		if len(fails) > 0 {
			fmt.Fprintf(stdout, "MISCOMPILATION: %d failing pass transitions\n", len(fails))
			return 1
		}
		fmt.Fprintln(stdout, "all passes preserve semantics")
	}
	return 0
}
