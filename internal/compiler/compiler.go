// Package compiler implements a nanopass P4 compiler front and mid end
// modelled on P4C's architecture (§3 of the paper): a composable sequence
// of small passes, each of which transforms the program and emits the
// result as P4 source. The driver re-parses and re-checks every emitted
// program — exactly the instrumentation Gauntlet's translation validation
// consumes ("we use p4test to emit a P4 program after each compiler pass",
// §5.2) — and skips snapshots whose printed form hashes identically to
// their predecessor.
//
// Crash bugs (abnormal pass termination) surface as *CrashError; emitted
// programs that no longer parse or type-check surface as
// *InvalidTransformError (the paper's "invalid transformations", §7.2).
package compiler

import (
	"fmt"

	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/printer"
	"gauntlet/internal/p4/types"
)

// Pass is one compiler pass. Run may change the program it receives in
// place and returns the transformed program (possibly the same object).
// The program may share type objects between declarations and their uses,
// as types.Check leaves them; the compiler passes each pass the previous
// pass's output unchanged.
type Pass interface {
	// Name identifies the pass in snapshots and bug reports.
	Name() string
	// Run transforms the program.
	Run(prog *ast.Program) (*ast.Program, error)
}

// Location classifies where in the compiler a pass (and hence a bug)
// lives. Mirrors Table 3 of the paper.
type Location int

// Pass locations.
const (
	FrontEnd Location = iota
	MidEnd
	BackEnd
)

// String renders the location as in Table 3.
func (l Location) String() string {
	switch l {
	case FrontEnd:
		return "front end"
	case MidEnd:
		return "mid end"
	default:
		return "back end"
	}
}

// CrashError reports abnormal termination of a pass: the analogue of a
// compiler crash (assertion violation, segmentation fault) in the paper's
// taxonomy.
type CrashError struct {
	Pass string
	// Msg is the assertion/panic message; Gauntlet deduplicates crash
	// bugs by this fingerprint (§7.3).
	Msg string
}

// Error implements the error interface.
func (e *CrashError) Error() string {
	return fmt.Sprintf("compiler crash in pass %s: %s", e.Pass, e.Msg)
}

// InvalidTransformError reports that the program emitted after a pass no
// longer parses or type-checks (§7.2 "invalid transformations").
type InvalidTransformError struct {
	Pass string
	Err  error
}

// Error implements the error interface.
func (e *InvalidTransformError) Error() string {
	return fmt.Sprintf("invalid transformation after pass %s: %v", e.Pass, e.Err)
}

// PassEffect records one pass execution in a compilation trace: whether
// the pass rewrote the program (changed its printed form) and by how much
// the emitted source grew or shrank. The trace is the compiler-side half
// of the coverage signal — internal/coverage folds it into a program's
// coverage profile, so the corpus engine can tell "this program made
// StrengthReduction fire" apart from "this one sailed through untouched"
// without instrumenting the passes themselves.
type PassEffect struct {
	Pass string
	// Rewrote reports whether the pass changed the printed program.
	Rewrote bool
	// TextDelta is the emitted-source byte-length change (0 when the pass
	// left the program alone).
	TextDelta int
}

// Snapshot is the emitted program after one pass that changed it.
type Snapshot struct {
	Pass string
	// Prog is the re-parsed, re-checked program (what translation
	// validation interprets).
	Prog *ast.Program
	// Text is the emitted P4 source.
	Text string
	// Hash fingerprints Text.
	Hash uint64
}

// Result is the outcome of a successful compilation.
type Result struct {
	// Snapshots holds the initial program plus one entry per pass that
	// changed the printed form, in pass order.
	Snapshots []Snapshot
	// Trace records every pass that ran, in pipeline order — including the
	// ones that did not change the program (which Snapshots skips).
	Trace []PassEffect
	// Final is the fully transformed program.
	Final *ast.Program
}

// Compiler drives a pass pipeline.
type Compiler struct {
	passes []Pass
}

// New creates a compiler with the given pass pipeline.
func New(passes ...Pass) *Compiler { return &Compiler{passes: passes} }

// Passes returns the pipeline.
func (c *Compiler) Passes() []Pass { return c.passes }

// Compile runs the pipeline over prog (which is not mutated). It returns
// the per-pass snapshots for translation validation. Pass panics are
// converted to *CrashError.
//
// The passes rewrite one working copy of the checked program in place:
// nothing reads a pass's input after the pass returns, because a
// rewritten snapshot holds the re-parsed emitted text and the skip test
// compares stored hashes. A pass output is hashed as it is printed, and
// printed to text only when its hash differs from its predecessor's.
func (c *Compiler) Compile(prog *ast.Program) (res *Result, err error) {
	checked := ast.CloneProgram(prog)
	if err := types.Check(checked); err != nil {
		return nil, fmt.Errorf("input program does not type-check: %w", err)
	}
	text := printer.Print(checked)
	h := printer.NewHash()
	h.WriteString(text)
	res = &Result{Snapshots: []Snapshot{{
		Pass: "initial",
		Prog: checked,
		Text: text,
		Hash: h.Sum64(),
	}}}

	cur := ast.CloneProgram(checked)
	prevLen := len(text)
	for _, p := range c.passes {
		next, perr := c.runPass(p, cur)
		if perr != nil {
			return nil, perr
		}
		cur = next
		hash := printer.Fingerprint(cur)
		if hash == res.Snapshots[len(res.Snapshots)-1].Hash {
			// The pass did not change the program; skip the snapshot
			// (§5.2: "ignore any emitted intermediate program that has a
			// hash identical to its predecessor").
			res.Trace = append(res.Trace, PassEffect{Pass: p.Name()})
			continue
		}
		emitted := printer.Print(cur)
		res.Trace = append(res.Trace, PassEffect{
			Pass: p.Name(), Rewrote: true, TextDelta: len(emitted) - prevLen,
		})
		prevLen = len(emitted)
		// Re-parse and re-check the emitted text: catches ToP4 and
		// invalid-transformation bugs.
		reparsed, rerr := parser.Parse(emitted)
		if rerr != nil {
			return nil, &InvalidTransformError{Pass: p.Name(), Err: rerr}
		}
		if terr := types.Check(reparsed); terr != nil {
			return nil, &InvalidTransformError{Pass: p.Name(), Err: terr}
		}
		res.Snapshots = append(res.Snapshots, Snapshot{
			Pass: p.Name(),
			Prog: reparsed,
			Text: emitted,
			Hash: hash,
		})
	}
	res.Final = cur
	return res, nil
}

// runPass executes one pass on the working program, converting panics to
// CrashError.
func (c *Compiler) runPass(p Pass, prog *ast.Program) (out *ast.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CrashError{Pass: p.Name(), Msg: fmt.Sprint(r)}
		}
	}()
	out, err = p.Run(prog)
	if err != nil {
		// An error return is abnormal pass termination just like a panic
		// (the paper's crash taxonomy does not care how the pass died);
		// classifying it here keeps every consumer — campaign, fuzzing
		// engine, reducer predicates — treating it as a finding rather
		// than a tool limitation.
		return nil, &CrashError{Pass: p.Name(), Msg: err.Error()}
	}
	if out == nil {
		return nil, &CrashError{Pass: p.Name(), Msg: "pass returned no program"}
	}
	return out, nil
}
