// Package core is Gauntlet itself: the orchestration that combines random
// program generation, translation validation and symbolic-execution test
// generation to hunt compiler bugs (Figures 2 and 4 of the paper), plus
// the campaign driver that reproduces the evaluation tables over the
// seeded-defect registry.
package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/generator"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/types"
	"gauntlet/internal/target/bmv2"
	"gauntlet/internal/target/tofino"
	"gauntlet/internal/testgen"
	"gauntlet/internal/validate"
)

// Technique names the bug-finding technique that produced a detection.
type Technique int

// Techniques.
const (
	// CrashHunt is random program generation + crash capture (§4).
	CrashHunt Technique = iota
	// TranslationValidation is pass-pairwise equivalence checking (§5).
	TranslationValidation
	// SymbolicExecution is input/output packet testing (§6).
	SymbolicExecution
)

// String renders the technique.
func (t Technique) String() string {
	switch t {
	case CrashHunt:
		return "crash hunt"
	case TranslationValidation:
		return "translation validation"
	default:
		return "symbolic execution"
	}
}

// Detection is the outcome of hunting one bug.
type Detection struct {
	Bug       *bugs.Bug
	Detected  bool
	Technique Technique
	// Via names the triggering program: "witness" or "seed N".
	Via string
	// Detail carries the crash fingerprint, failing pass +
	// counterexample, or packet mismatch.
	Detail string
	// InvalidTransform marks detections that surfaced as unparsable
	// emitted programs (tracked but not counted, §7.2).
	InvalidTransform bool
}

// Campaign hunts seeded bugs with Gauntlet's three techniques.
type Campaign struct {
	Registry *bugs.Registry
	// RandomSeeds is how many generated programs to try per bug after
	// the witness (0 = witness only).
	RandomSeeds int
	// SkipWitness hunts with random programs only — the paper's actual
	// discovery mode, where nobody hands the fuzzer a reproducer.
	SkipWitness bool
	// MaxConflicts bounds every solver call.
	MaxConflicts int
	// TestOpts configures symbolic-execution test generation.
	TestOpts testgen.Options
	// Workers bounds RunAll's parallelism (0 = GOMAXPROCS).
	Workers int
	// Cache memoizes block formulas and equivalence verdicts across all
	// hunts (and across RunAll's worker pool — it is safe for concurrent
	// use). Many bugs share witnesses and pipelines, so the reuse rate
	// is high; terms are hash-consed process-wide, which is what makes
	// the sharing sound.
	Cache *validate.Cache
}

// NewCampaign builds a campaign over the full registry with paper-scale
// settings.
func NewCampaign() *Campaign {
	return &Campaign{
		Registry:     bugs.Load(),
		RandomSeeds:  0,
		MaxConflicts: 50000,
		TestOpts:     testgen.DefaultOptions(),
		Cache:        validate.NewCache(),
	}
}

// Pipeline returns platform p's reference pass pipeline, the P4C front
// and mid end followed by p's back end, with defects instrumented. Every
// campaign, engine, fleet lease and reduction builds its pipeline here.
// A defect whose pass the pipeline does not run is refused:
// bugs.Instrument would skip it, and the run would hunt a defect that is
// not there.
func Pipeline(p bugs.Platform, defects ...*bugs.Bug) ([]compiler.Pass, error) {
	passes := compiler.DefaultPasses()
	switch p {
	case bugs.BMv2:
		passes = append(passes, bmv2.BackendPasses()...)
	case bugs.Tofino:
		passes = append(passes, tofino.BackendPasses()...)
	}
	for _, b := range defects {
		if !slices.ContainsFunc(passes, func(ps compiler.Pass) bool { return ps.Name() == b.Pass }) {
			return nil, fmt.Errorf("defect %s patches pass %s, which the %s pipeline does not run", b.ID, b.Pass, p)
		}
	}
	return bugs.Instrument(passes, defects), nil
}

// PlatformOf names the platform whose reference pipeline compiles a
// generator backend's programs: V1Model programs go to BMv2, TNA
// programs to Tofino.
func PlatformOf(b generator.Backend) bugs.Platform {
	if b == generator.TNA {
		return bugs.Tofino
	}
	return bugs.BMv2
}

// programsFor yields the candidate trigger programs for a bug: its
// witness first, then random programs.
func (c *Campaign) programsFor(b *bugs.Bug) ([]namedProgram, error) {
	prog, err := parser.Parse(b.Witness)
	if err != nil {
		return nil, fmt.Errorf("bug %s: witness does not parse: %w", b.ID, err)
	}
	if err := types.Check(prog); err != nil {
		return nil, fmt.Errorf("bug %s: witness does not check: %w", b.ID, err)
	}
	var out []namedProgram
	if !c.SkipWitness {
		out = append(out, namedProgram{name: "witness", prog: prog})
	}
	backend := generator.V1Model
	if b.Platform == bugs.Tofino {
		backend = generator.TNA
	}
	for seed := int64(0); seed < int64(c.RandomSeeds); seed++ {
		cfg := generator.DefaultConfig(seed)
		cfg.Backend = backend
		out = append(out, namedProgram{
			name: fmt.Sprintf("seed %d", seed),
			prog: generator.Generate(cfg),
		})
	}
	return out, nil
}

type namedProgram struct {
	name string
	prog *ast.Program
}

// OracleFor builds the shared oracle stage for one bug: the bug's
// platform pipeline instrumented with its defect, interrogated with the
// platform-appropriate technique — translation validation for the open
// P4C side, symbolic-execution packet tests for the black-box back ends.
// Hunt, the streaming Engine and tests all detect through this one stage.
func (c *Campaign) OracleFor(b *bugs.Bug) (*Oracle, error) {
	passes, err := Pipeline(b.Platform, b)
	if err != nil {
		return nil, err
	}
	o := &Oracle{
		Passes:       passes,
		MaxConflicts: c.MaxConflicts,
		TestOpts:     c.TestOpts,
		Cache:        c.Cache,
	}
	if b.Kind == bugs.Semantic {
		switch b.Platform {
		case bugs.P4C:
			o.Validate = true
		case bugs.BMv2, bugs.Tofino:
			o.PacketTests = true
		}
	}
	return o, nil
}

// Hunt activates a single bug and applies the platform-appropriate
// technique to every candidate program until one detects it.
func (c *Campaign) Hunt(b *bugs.Bug) (Detection, error) {
	return c.HuntContext(context.Background(), b)
}

// HuntContext is Hunt with cancellation plumbed through the oracle.
func (c *Campaign) HuntContext(ctx context.Context, b *bugs.Bug) (Detection, error) {
	det := Detection{Bug: b}
	programs, err := c.programsFor(b)
	if err != nil {
		return det, err
	}
	o, err := c.OracleFor(b)
	if err != nil {
		return det, err
	}
	for _, np := range programs {
		out := o.Examine(ctx, np.prog)
		switch {
		case out.Err != nil:
			return det, fmt.Errorf("bug %s on %s: %w", b.ID, np.name, out.Err)
		case out.Crash != nil:
			det.Detected = true
			det.Technique = CrashHunt
			det.Via = np.name
			det.Detail = fmt.Sprintf("crash in %s: %s", out.Crash.Pass, out.Crash.Msg)
			return det, nil
		case out.Invalid != nil:
			det.Detected = true
			det.InvalidTransform = true
			det.Via = np.name
			det.Detail = out.Invalid.Error()
			return det, nil
		case len(out.Failures) > 0:
			det.Detected = true
			det.Technique = TranslationValidation
			det.Via = np.name
			det.Detail = out.Failures[0].String()
			return det, nil
		case len(out.Mismatches) > 0:
			det.Detected = true
			det.Technique = SymbolicExecution
			det.Via = np.name
			det.Detail = out.Mismatches[0]
			return det, nil
		}
	}
	return det, nil
}

// HuntClean runs all three techniques over a bug's witness with the
// reference (uninstrumented) pipeline. It returns "" when nothing is
// flagged — the no-false-alarm baseline (§5.2) — or a description of the
// spurious finding.
func (c *Campaign) HuntClean(b *bugs.Bug) (string, error) {
	prog, err := parser.Parse(b.Witness)
	if err != nil {
		return "", fmt.Errorf("witness does not parse: %w", err)
	}
	if err := types.Check(prog); err != nil {
		return "", fmt.Errorf("witness does not check: %w", err)
	}
	passes, _ := Pipeline(b.Platform) // without defects it cannot fail
	o := &Oracle{
		Passes:       passes,
		MaxConflicts: c.MaxConflicts,
		TestOpts:     c.TestOpts,
		Cache:        c.Cache,
		Validate:     true,
		PacketTests:  true,
	}
	out := o.Compile(prog)
	if out.Crash != nil || out.Invalid != nil || out.Err != nil {
		cerr := out.Err
		if out.Crash != nil {
			cerr = out.Crash
		} else if out.Invalid != nil {
			cerr = out.Invalid
		}
		return fmt.Sprintf("clean compile failed: %v", cerr), nil
	}
	o.Inspect(context.Background(), &out)
	if out.Err != nil {
		return "", fmt.Errorf("oracle: %w", out.Err)
	}
	if len(out.Failures) > 0 {
		return "translation validation false alarm: " + out.Failures[0].String(), nil
	}
	if len(out.Mismatches) > 0 {
		return "symbolic execution false alarm: " + out.Mismatches[0], nil
	}
	return "", nil
}

// RunAll hunts every bug in the registry (duplicates too: they re-detect
// their original's behaviour) and returns detections keyed by bug ID.
// Hunts are independent (each instruments its own pipeline over its own
// program clones), so they run on a bounded worker pool.
func (c *Campaign) RunAll() (map[string]Detection, error) {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type item struct {
		id  string
		det Detection
		err error
	}
	jobs := make(chan *bugs.Bug)
	results := make(chan item)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range jobs {
				det, err := c.Hunt(b)
				results <- item{id: b.ID, det: det, err: err}
			}
		}()
	}
	go func() {
		for _, b := range c.Registry.Bugs {
			jobs <- b
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	out := map[string]Detection{}
	var firstErr error
	for it := range results {
		if it.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("bug %s: %w", it.id, it.err)
		}
		out[it.id] = it.det
	}
	return out, firstErr
}
