// Command p4reduce automatically shrinks a P4 program while preserving a
// compiler-observable property — the automation of the paper's manual
// reduction workflow (§8: "we prune the random P4 program that caused the
// bug until we get a sufficiently small program").
//
// Properties:
//
//	-crash        the pipeline must keep crashing (with -bug, the
//	              reference pipeline of the bug's platform, instrumented
//	              with the seeded defect, is used)
//	-miscompile   translation validation must keep failing (requires -bug)
//
// Usage:
//
//	p4reduce -bug P4C-C-03 -crash program.p4
//	p4reduce -bug P4C-S-16 -miscompile program.p4
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/printer"
	"gauntlet/internal/p4/types"
	"gauntlet/internal/reduce"
	"gauntlet/internal/validate"
)

func main() {
	bugID := flag.String("bug", "", "seeded bug ID whose instrumented pipeline to use")
	crash := flag.Bool("crash", false, "preserve: the compiler crashes")
	miscompile := flag.Bool("miscompile", false, "preserve: translation validation fails")
	maxConflicts := flag.Int("max-conflicts", 50000, "solver conflict budget")
	flag.Parse()

	if flag.NArg() != 1 || (!*crash && !*miscompile) {
		fmt.Fprintln(os.Stderr, "usage: p4reduce -bug ID (-crash|-miscompile) program.p4")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	if err := types.Check(prog); err != nil {
		fatal(err)
	}

	passes := compiler.DefaultPasses()
	if *bugID != "" {
		bug := bugs.Load().ByID(*bugID)
		if bug == nil {
			fatal(fmt.Errorf("unknown bug %q", *bugID))
		}
		// The reference pipeline of the bug's platform, with the bug in it.
		if passes, err = core.Pipeline(bug.Platform, bug); err != nil {
			fatal(err)
		}
	}

	var keep reduce.Predicate
	switch {
	case *crash:
		keep = func(p *ast.Program) bool {
			_, cerr := compiler.New(passes...).Compile(p)
			var ce *compiler.CrashError
			return errors.As(cerr, &ce)
		}
	case *miscompile:
		keep = func(p *ast.Program) bool {
			res, cerr := compiler.New(passes...).Compile(p)
			if cerr != nil {
				return false
			}
			verdicts, verr := validate.Snapshots(res, validate.Options{MaxConflicts: *maxConflicts})
			return verr == nil && len(validate.Failures(verdicts)) > 0
		}
	}

	if !keep(prog) {
		fatal(errors.New("the property does not hold on the input program"))
	}
	before := reduce.Size(prog)
	small := reduce.Reduce(prog, keep, reduce.Options{})
	fmt.Fprintf(os.Stderr, "reduced %d -> %d statements\n", before, reduce.Size(small))
	fmt.Println(printer.Print(small))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "p4reduce: %v\n", err)
	os.Exit(1)
}
