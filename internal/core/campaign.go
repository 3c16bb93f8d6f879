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

	// cache memoizes block formulas and equivalence verdicts across all
	// hunts (and across RunAll's worker pool — it is safe for concurrent
	// use). Many bugs share witnesses and pipelines, so the reuse rate
	// is high; terms are hash-consed process-wide, which is what makes
	// the sharing sound. Nil means no cross-hunt reuse.
	cache *validate.Cache
}

// campaignMaxConflicts bounds every solver call of a campaign's hunts.
const campaignMaxConflicts = 50000

// NewCampaign builds a campaign over the full registry with paper-scale
// settings.
func NewCampaign() *Campaign {
	return &Campaign{Registry: bugs.Load(), cache: validate.NewCache()}
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
	o := c.oracle(passes)
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

// oracle is the campaign's oracle over passes, with both checks off.
func (c *Campaign) oracle(passes []compiler.Pass) *Oracle {
	return &Oracle{
		Passes:       passes,
		MaxConflicts: campaignMaxConflicts,
		TestOpts:     testgen.DefaultOptions(),
		Cache:        c.cache,
	}
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
		if out.Err != nil {
			return det, fmt.Errorf("bug %s on %s: %w", b.ID, np.name, out.Err)
		}
		f := classify(out)
		if f == nil {
			continue
		}
		det.Detected, det.Via, det.Detail = true, np.name, f.Detail
		switch f.Kind {
		case FindingInvalidTransform:
			det.InvalidTransform = true
		case FindingMiscompilation:
			det.Technique = TranslationValidation
		case FindingMismatch:
			det.Technique = SymbolicExecution
		}
		return det, nil
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
	o := c.oracle(passes)
	o.Validate, o.PacketTests = true, true
	out := o.Examine(context.Background(), prog)
	f := classify(out)
	switch {
	case out.Result == nil && f == nil:
		return fmt.Sprintf("clean compile failed: %v", out.Err), nil
	case out.Err != nil:
		return "", fmt.Errorf("oracle: %w", out.Err)
	case f == nil:
		return "", nil
	}
	return falseAlarm[f.Kind] + f.Detail, nil
}

// falseAlarm prefixes HuntClean's description of a finding, by kind.
var falseAlarm = [...]string{
	FindingCrash:            "clean compile failed: ",
	FindingInvalidTransform: "clean compile failed: ",
	FindingMiscompilation:   "translation validation false alarm: ",
	FindingMismatch:         "symbolic execution false alarm: ",
}

// RunAll hunts every bug in the registry (duplicates too: they re-detect
// their original's behaviour) and returns detections keyed by bug ID.
// Hunts are independent (each instruments its own pipeline over its own
// program clones), so they run on a pool of GOMAXPROCS workers.
func (c *Campaign) RunAll() (map[string]Detection, error) {
	workers := runtime.GOMAXPROCS(0)
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
