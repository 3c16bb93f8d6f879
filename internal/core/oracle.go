package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gauntlet/internal/compiler"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/smt"
	"gauntlet/internal/smt/solver"
	"gauntlet/internal/sym"
	"gauntlet/internal/target/device"
	"gauntlet/internal/testgen"
	"gauntlet/internal/validate"
)

// Oracle is the shared bug-detection stage: compile a program through a
// pass pipeline, then interrogate the result with translation validation
// (§5) and symbolic-execution packet tests (§6). It is the single
// implementation behind Campaign.Hunt, Campaign.HuntClean and the
// streaming Engine (which p4reduce runs too) — one code path, three
// consumers.
//
// An Oracle is immutable after construction and safe for concurrent use:
// each Examine call builds its own compiler instance and solver sessions,
// sharing only the (concurrency-safe) validation cache and the
// process-wide term interner — the "isolate first, then share" split that
// makes worker pools sound.
type Oracle struct {
	// Passes is the pipeline under test (possibly instrumented with
	// seeded defects).
	Passes []compiler.Pass
	// MaxConflicts bounds every solver call.
	MaxConflicts int
	// TestOpts configures symbolic-execution test generation (its
	// MaxConflicts is overridden by the oracle's).
	TestOpts testgen.Options
	// Validate enables pass-pairwise translation validation.
	Validate bool
	// PacketTests enables symbolic-execution packet testing of the final
	// program against the input program's formula.
	PacketTests bool
	// Cache memoizes block formulas and equivalence verdicts (optional;
	// shared across goroutines when set), and its context is where every
	// term of a call is built. The engine sets it on a copy per call to
	// its current epoch's cache, so a rotation takes effect for new calls
	// while in-flight ones keep the pair they started with.
	Cache *validate.Cache
	// Concolic configures the bit-parallel concrete fast path under every
	// equivalence query (zero value = enabled with defaults; see
	// validate.Concolic). Reduction predicates use WithHints to thread a
	// finding's counterexample through it.
	Concolic validate.Concolic
	// QueryObs, when non-nil, receives one callback per equivalence
	// query with the resolution tier that answered it and its latency
	// (see validate.Options.QueryObs). Observation-only.
	QueryObs func(tier string, d time.Duration)
	// Timeout is the wall-clock watchdog for one Examine's inspection
	// (0 = none). MaxConflicts bounds conflicts, not time — one
	// pathological miter can stall a worker for minutes inside a single
	// budget — so the deadline is threaded down into the SAT inner loop,
	// where expiry degrades the running query to Unknown. Examine applies
	// the escalation ladder: full verdict → one retry at doubled budgets
	// (wall-clock and conflicts) → explicit TimedOut outcome. Quarantine
	// of repeat offenders is the engine's call, not the oracle's.
	Timeout time.Duration
}

// Outcome is the oracle's verdict on one program. At most one finding
// family is populated; all empty means the program compiled and behaved
// cleanly. Err reports tool limitations (interpreter gaps, unsatisfiable
// test paths) — per the paper's false-alarm discipline these are tracked,
// never reported as compiler bugs.
type Outcome struct {
	// Crash is set when a pass terminated abnormally.
	Crash *compiler.CrashError
	// Invalid is set when a pass emitted an unparsable program (§7.2).
	Invalid *compiler.InvalidTransformError
	// Failures are the translation-validation inequivalences.
	Failures []validate.Verdict
	// Mismatches describe packet tests whose observed output differed
	// from the symbolic expectation.
	Mismatches []string
	// MismatchCases are the concrete test cases behind Mismatches (same
	// order). A reducer replays one of these — input packet, table config
	// and solver model — against each candidate instead of re-running
	// full test generation.
	MismatchCases []testgen.Case
	// Result is the compilation result (nil when compilation failed
	// before producing one).
	Result *compiler.Result
	// Err is an infrastructure/tool-limitation error.
	Err error
	// Unknowns counts equivalence verdicts degraded to Unknown by budget
	// exhaustion or the wall-clock watchdog. Not bug evidence — an
	// accounting of weakened coverage, so chaos runs can prove every
	// fault surfaced as a quarantine record or an Unknown, never a hang.
	Unknowns int
	// TimedOut marks an inspection that hit the oracle's wall-clock
	// watchdog even after the doubled-budget retry. Partial evidence
	// gathered before the deadline (failures, mismatches) is still
	// populated and still counts.
	TimedOut bool
	// Retried marks an inspection that went through the ladder's
	// doubled-budget retry (whether or not the retry then completed).
	Retried bool
}

// Finding reports whether the outcome contains any bug evidence.
func (o Outcome) Finding() bool {
	return o.Crash != nil || o.Invalid != nil || len(o.Failures) > 0 || len(o.Mismatches) > 0
}

// classify maps an outcome's bug evidence to the finding it reports:
// kind, pass, Detail and raw symptom (crashMsg), the fields dedup and
// reduction key on. It returns nil when the outcome holds no evidence.
// The engine's compile and oracle stages, Hunt and HuntClean all read an
// outcome through it, so each kind's Detail is written in one place.
func classify(o Outcome) *Finding {
	switch {
	case o.Crash != nil:
		return &Finding{Kind: FindingCrash, Pass: o.Crash.Pass,
			Detail:   fmt.Sprintf("crash in %s: %s", o.Crash.Pass, o.Crash.Msg),
			crashMsg: o.Crash.Msg}
	case o.Invalid != nil:
		msg := o.Invalid.Error()
		return &Finding{Kind: FindingInvalidTransform, Pass: o.Invalid.Pass, Detail: msg, crashMsg: msg}
	case len(o.Failures) > 0:
		return &Finding{Kind: FindingMiscompilation, Pass: o.Failures[0].PassB, Detail: o.Failures[0].String()}
	case len(o.Mismatches) > 0:
		return &Finding{Kind: FindingMismatch, Detail: o.Mismatches[0]}
	}
	return nil
}

// Compile runs only the compile step of the oracle, classifying crash and
// invalid-transform errors into the outcome.
func (o *Oracle) Compile(prog *ast.Program) Outcome {
	comp := compiler.New(o.Passes...)
	res, err := comp.Compile(prog)
	out := Outcome{Result: res}
	if err != nil {
		var crash *compiler.CrashError
		var invalid *compiler.InvalidTransformError
		switch {
		case errors.As(err, &crash):
			out.Crash = crash
		case errors.As(err, &invalid):
			out.Invalid = invalid
		default:
			out.Err = err
		}
	}
	return out
}

// Inspect runs the post-compile oracle checks on a successful compilation:
// translation validation first (it pinpoints the failing pass), then — only
// when validation found nothing — packet tests against the final program.
// Test expectations come from the initial snapshot (the type-checked clone
// of the input program: name references resolved, untouched by any pass).
func (o *Oracle) Inspect(ctx context.Context, out *Outcome) {
	if o.Validate {
		verdicts, err := validate.SnapshotsContext(ctx, out.Result,
			validate.Options{MaxConflicts: o.MaxConflicts, Cache: o.Cache, Concolic: o.Concolic, QueryObs: o.QueryObs})
		// Verdicts gathered before a deadline still count: Sat ones are
		// findings, Unknown ones are weakened-coverage accounting.
		for _, v := range verdicts {
			if v.Err == nil && v.Status == solver.Unknown {
				out.Unknowns++
			}
		}
		out.Failures = validate.Failures(verdicts)
		if err != nil {
			out.Err = err
			return
		}
		if len(out.Failures) > 0 {
			return
		}
	}
	if o.PacketTests {
		opts := o.TestOpts
		opts.MaxConflicts = o.MaxConflicts
		if o.Cache != nil {
			// Test generation builds its symbolic pipeline in the same
			// epoch context as validation, so the whole call's terms
			// retire together.
			opts.SMT = o.Cache.Context()
		}
		input := out.Result.Snapshots[0].Prog
		cases, cerr := testgen.GenerateContext(ctx, input, opts)
		if len(cases) == 0 && cerr != nil {
			out.Err = cerr
			return
		}
		mismatches, mcases, err := device.New(out.Result.Final).Run(cases)
		if err != nil {
			out.Err = err
			return
		}
		out.Mismatches = mismatches
		out.MismatchCases = mcases
		// A deadline mid-enumeration still ran the partial suite above;
		// surface the cancellation alongside whatever it caught.
		out.Err = cerr
	}
}

// Examine compiles prog and inspects the result — the full shared oracle
// stage. With Timeout set it applies the degradation ladder: a first
// inspection under the wall-clock watchdog, one retry at doubled budgets
// when the watchdog (not the caller) expired without producing bug
// evidence, and finally an explicit TimedOut outcome. The verdict only
// ever weakens — a deadline can never hang a worker or fabricate a
// finding.
func (o *Oracle) Examine(ctx context.Context, prog *ast.Program) Outcome {
	out := o.Compile(prog)
	if out.Err != nil || out.Crash != nil || out.Invalid != nil {
		return out
	}
	o.InspectLadder(ctx, &out)
	return out
}

// WithHints returns a copy of the oracle whose equivalence queries
// replay the given counterexample assignments (one tape packet each)
// before any batch falsification or solver work. A reduction predicate
// passes the original finding's counterexample: most candidates still
// fail on it, so the inequivalence re-proves itself in one packet.
func (o *Oracle) WithHints(hints ...smt.Assignment) *Oracle {
	try := *o
	try.Concolic.Hints = nil
	for _, h := range hints {
		if h != nil {
			try.Concolic.Hints = append(try.Concolic.Hints, h)
		}
	}
	return &try
}

// ReplayMismatch re-checks one cached mismatch case against a reduction
// candidate with zero solver work: compile the candidate, re-derive the
// expected output by evaluating the candidate's own symbolic pipeline
// under the cached model (concrete evaluation, no path enumeration), and
// inject the same packet and table state into the compiled device. A true
// return means the candidate still disagrees with its spec on that input
// — the mismatch symptom, reproduced from one packet. A false return is
// not a verdict: the candidate may mismatch on other inputs, so callers
// fall back to the full oracle.
func (o *Oracle) ReplayMismatch(cand *ast.Program, c testgen.Case) (bool, error) {
	out := o.Compile(cand)
	if out.Err != nil || out.Crash != nil || out.Invalid != nil || out.Result == nil {
		return false, out.Err
	}
	sctx := smt.DefaultContext()
	if o.Cache != nil {
		sctx = o.Cache.Context()
	}
	input := out.Result.Snapshots[0].Prog
	pipe, err := sym.PipelineOfIn(sctx, input)
	if err != nil {
		return false, err
	}
	replay := testgen.CaseFromModel(input, pipe, c.Model, c.PathID)
	mismatches, _, err := device.New(out.Result.Final).Run([]testgen.Case{replay})
	if err != nil {
		return false, err
	}
	return len(mismatches) > 0, nil
}

// InspectLadder is Inspect wrapped in the degradation ladder (see
// Oracle.Timeout). With no Timeout configured it is plain Inspect.
func (o *Oracle) InspectLadder(ctx context.Context, out *Outcome) {
	if o.Timeout <= 0 {
		o.Inspect(ctx, out)
		return
	}
	attempt := func(budget time.Duration, conflicts int) (Outcome, bool) {
		ictx, cancel := context.WithTimeout(ctx, budget)
		defer cancel()
		try := *o
		try.MaxConflicts = conflicts
		a := Outcome{Result: out.Result}
		try.Inspect(ictx, &a)
		// Watchdog expiry only: a cancelled parent context means the run
		// is draining, not that this program is slow.
		hit := ctx.Err() == nil && errors.Is(a.Err, context.DeadlineExceeded)
		return a, hit
	}
	a, hit := attempt(o.Timeout, o.MaxConflicts)
	if hit && !a.Finding() {
		// Rung two: double both budgets and try once more. Unknowns from
		// the abandoned attempt are superseded, not summed — the retry
		// re-poses the same queries.
		a, hit = attempt(2*o.Timeout, 2*o.MaxConflicts)
		a.Retried = true
	}
	if hit {
		// The ladder is exhausted (or the deadline fired after evidence
		// was already in hand). Convert the deadline error into the
		// explicit TimedOut/Unknown degradation so the engine accounts it
		// as a weakened verdict — or a quarantine — never a tool error.
		a.Err = nil
		a.TimedOut = !a.Finding()
	}
	*out = a
}
