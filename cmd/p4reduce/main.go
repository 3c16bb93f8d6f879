// Command p4reduce automatically shrinks a P4 program while preserving a
// compiler-observable symptom — the automation of the paper's manual
// reduction workflow (§8: "we prune the random P4 program that caused the
// bug until we get a sufficiently small program").
//
// It is a one-slot run of the fuzzing engine (core.Engine) whose only
// program is the input: the engine's oracle finds the symptom and its
// reducer shrinks the witness, so the reduction keeps exactly the symptom
// the engine pins for that kind of finding:
//
//	-crash        the same pass must keep crashing with the same message
//	-miscompile   translation validation must keep failing in the same
//	              pass (requires -bug)
//
// With -bug, the pipeline is the reference pipeline of the bug's platform
// instrumented with the seeded defect; without it, the BMv2 reference
// pipeline. The input must show the symptom itself: a program that does
// not, or that shows a finding of the other kind, is refused.
//
// Usage:
//
//	p4reduce -bug P4C-C-03 -crash program.p4
//	p4reduce -bug P4C-S-16 -miscompile program.p4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"gauntlet/internal/bugs"
	"gauntlet/internal/core"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/types"
	"gauntlet/internal/reduce"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p4reduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bugID := fs.String("bug", "", "seeded bug ID whose instrumented pipeline to use")
	crash := fs.Bool("crash", false, "preserve: the compiler crashes")
	miscompile := fs.Bool("miscompile", false, "preserve: translation validation fails")
	maxConflicts := fs.Int("max-conflicts", 50000, "solver conflict budget")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() != 1 || (!*crash && !*miscompile) {
		fmt.Fprintln(stderr, "usage: p4reduce -bug ID (-crash|-miscompile) program.p4")
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "p4reduce: %v\n", err)
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

	// The BMv2 reference pipeline, or the bug's platform's with the bug
	// in it.
	platform, defects := bugs.BMv2, []*bugs.Bug(nil)
	if *bugID != "" {
		bug := bugs.Load().ByID(*bugID)
		if bug == nil {
			return fatal(fmt.Errorf("unknown bug %q", *bugID))
		}
		platform, defects = bug.Platform, []*bugs.Bug{bug}
	}
	passes, err := core.Pipeline(platform, defects...)
	if err != nil {
		return fatal(err)
	}

	want := core.FindingMiscompilation
	if *crash {
		want = core.FindingCrash
	}
	findings := core.NewEngine(core.EngineConfig{
		Seeds:        1,
		Generate:     func(int64) *ast.Program { return prog },
		Passes:       passes,
		MaxConflicts: *maxConflicts,
		// A crash needs only the compile step; a miscompilation only
		// translation validation.
		BlackBox:   *crash,
		Reduce:     true,
		ReduceOpts: reduce.Options{MaxRounds: 8},
	}).Run(context.Background())
	if len(findings) != 1 || findings[0].Kind != want {
		return fatal(errors.New("the property does not hold on the input program"))
	}
	f := findings[0]
	fmt.Fprintf(stderr, "reduced %d -> %d statements\n", f.SizeBefore, f.SizeAfter)
	fmt.Fprintln(stdout, f.Source)
	return 0
}
