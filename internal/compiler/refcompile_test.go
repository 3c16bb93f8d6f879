package compiler

import (
	"fmt"

	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/printer"
	"gauntlet/internal/p4/types"
)

// RefCompile runs refCompile, Compile as it was while every pass still
// ran on its own clone and every output was printed to be hashed. It is
// kept verbatim as the reference Compile must match: the same snapshots,
// trace, final program and error on every input.
func RefCompile(c *Compiler, prog *ast.Program) (*Result, error) { return c.refCompile(prog) }

func (c *Compiler) refCompile(prog *ast.Program) (res *Result, err error) {
	cur := ast.CloneProgram(prog)
	if err := types.Check(cur); err != nil {
		return nil, fmt.Errorf("input program does not type-check: %w", err)
	}
	text := printer.Print(cur)
	res = &Result{Snapshots: []Snapshot{{
		Pass: "initial",
		Prog: cur,
		Text: text,
		Hash: printer.Fingerprint(cur),
	}}}

	prevLen := len(text)
	for _, p := range c.passes {
		next, perr := c.refRunPass(p, cur)
		if perr != nil {
			return nil, perr
		}
		hash := printer.Fingerprint(next)
		if hash == res.Snapshots[len(res.Snapshots)-1].Hash {
			// The pass did not change the program; skip the snapshot
			// (§5.2: "ignore any emitted intermediate program that has a
			// hash identical to its predecessor").
			res.Trace = append(res.Trace, PassEffect{Pass: p.Name()})
			cur = next
			continue
		}
		emitted := printer.Print(next)
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
		cur = next
	}
	res.Final = cur
	return res, nil
}

// refRunPass executes one pass on a clone, converting panics to CrashError.
func (c *Compiler) refRunPass(p Pass, prog *ast.Program) (out *ast.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CrashError{Pass: p.Name(), Msg: fmt.Sprint(r)}
		}
	}()
	out, err = p.Run(ast.CloneProgram(prog))
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
