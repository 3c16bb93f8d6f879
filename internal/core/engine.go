package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gauntlet/internal/compiler"
	"gauntlet/internal/corpus"
	"gauntlet/internal/coverage"
	"gauntlet/internal/generator"
	"gauntlet/internal/inorder"
	"gauntlet/internal/mutate"
	"gauntlet/internal/obs"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/lexer"
	"gauntlet/internal/p4/printer"
	"gauntlet/internal/p4/token"
	"gauntlet/internal/p4/types"
	"gauntlet/internal/reduce"
	"gauntlet/internal/smt"
	"gauntlet/internal/smt/solver"
	"gauntlet/internal/testgen"
	"gauntlet/internal/validate"
)

// FindingKind classifies a fuzzing finding.
type FindingKind int

// Finding kinds, in the order the oracle stages can produce them.
const (
	// FindingCrash is abnormal pass termination (§4).
	FindingCrash FindingKind = iota
	// FindingInvalidTransform is a pass emitting an unparsable program
	// (§7.2, tracked but uncounted).
	FindingInvalidTransform
	// FindingMiscompilation is a translation-validation inequivalence
	// (§5).
	FindingMiscompilation
	// FindingMismatch is a packet test disagreeing with the symbolic
	// expectation (§6).
	FindingMismatch
)

// String renders the kind.
func (k FindingKind) String() string {
	switch k {
	case FindingCrash:
		return "crash"
	case FindingInvalidTransform:
		return "invalid-transform"
	case FindingMiscompilation:
		return "miscompilation"
	default:
		return "packet-mismatch"
	}
}

// MarshalText renders the kind for JSONL finding streams.
func (k FindingKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the rendered kind back (the journal replay path).
func (k *FindingKind) UnmarshalText(text []byte) error {
	switch string(text) {
	case "crash":
		*k = FindingCrash
	case "invalid-transform":
		*k = FindingInvalidTransform
	case "miscompilation":
		*k = FindingMiscompilation
	case "packet-mismatch":
		*k = FindingMismatch
	default:
		return fmt.Errorf("unknown finding kind %q", text)
	}
	return nil
}

// Finding is one unique bug surfaced by the engine: deduplicated by
// Fingerprint and shrunk by the auto-reducer.
type Finding struct {
	Kind FindingKind `json:"kind"`
	// Seed is the schedule slot that produced the triggering program. For
	// Origin "generate" it doubles as the generator seed; for Origin
	// "mutate" the program came from mutating corpus seeds under the
	// engine's master seed, so reproducing it means replaying the run
	// with the same -seed (or starting from Source directly).
	Seed    int64  `json:"seed"`
	Backend string `json:"backend"`
	// Pass is the crashing pass (crash/invalid kinds) or the failing
	// pass pinpointed by translation validation.
	Pass string `json:"pass,omitempty"`
	// Detail is the human-readable symptom (crash message,
	// counterexample, packet mismatch).
	Detail string `json:"detail"`
	// Fingerprint is the stable dedup key: crash and invalid-transform
	// findings hash (pass, message); miscompilations and mismatches hash
	// (kind, failing pass, printer.Fingerprint of the reduced witness).
	Fingerprint uint64 `json:"fingerprint"`
	// Origin records how the triggering program was produced: "generate"
	// (fresh from the grammar) or "mutate" (corpus mutation).
	Origin string `json:"origin,omitempty"`
	// SizeBefore/SizeAfter are the witness statement counts around
	// reduction (equal when reduction is disabled).
	SizeBefore int `json:"size_before,omitempty"`
	SizeAfter  int `json:"size_after,omitempty"`
	// Source is the printed (reduced) witness program.
	Source string `json:"source,omitempty"`
	// Provenance is the finding's lineage trace: where the triggering
	// program came from and what each pipeline stage spent on it. Always
	// populated by the engine; nil on findings replayed from journals
	// written before the provenance schema existed (the field is
	// additive, so old records parse unchanged).
	Provenance *Provenance `json:"provenance,omitempty"`
	// Program is the (reduced) witness AST.
	Program *ast.Program `json:"-"`

	// crashMsg is the raw panic/reparse message, kept separately from
	// Detail so fingerprints and reduction predicates don't depend on
	// presentation.
	crashMsg string
	// cex is a miscompilation's distinguishing assignment (the validation
	// counterexample). The reduction predicate replays it as a hint — one
	// packet through the candidate's compiled miter tape — so most
	// candidates re-prove the inequivalence without a solver call.
	cex smt.Assignment
	// replay is a mismatch finding's concrete failing test case. The
	// reduction predicate re-injects it (packet + table config, expected
	// output re-derived from the candidate's own formula under the cached
	// model) before falling back to full test generation.
	replay *testgen.Case
	// order is the candidate's position among the candidates dedup let
	// through, in the canonical release sequence (round by round,
	// crash-family candidates, then oracle candidates, each in slot
	// order). The report stage re-sequences reduced findings by it, so
	// final dedup — and with it which witness bytes survive — is
	// independent of how long each reduction took.
	order int64
}

// Provenance traces one finding's lineage through the pipeline: the
// schedule position that produced the triggering program, how it was
// materialized, what each heavy stage spent on it, and how its
// equivalence queries were resolved. Wall-clock fields are observation
// only — they vary run to run and carry no determinism contract; the
// schedule fields (Slot, Origin, Mutations) are pure functions of the
// configuration.
type Provenance struct {
	// Slot is the schedule slot (== Finding.Seed).
	Slot int64 `json:"slot"`
	// Origin is "generate" or "mutate"; Mutations lists the applied
	// mutator names, innermost first, when Origin is "mutate".
	Origin    string   `json:"origin"`
	Mutations []string `json:"mutations,omitempty"`
	// Per-stage wall clock, in nanoseconds, as measured around the
	// supervised stage body (watchdog and fault-injection overhead
	// included — this is the latency an operator would observe).
	GenerateNs int64 `json:"generate_ns"`
	CompileNs  int64 `json:"compile_ns,omitempty"`
	OracleNs   int64 `json:"oracle_ns,omitempty"`
	ReduceNs   int64 `json:"reduce_ns,omitempty"`
	// Reduction accounting for this finding (see Stats for the global
	// definitions): serial-equivalent candidates consumed, speculative
	// probes launched, and probes whose results were discarded.
	ReduceSerialCalls    int `json:"reduce_serial_calls,omitempty"`
	ReduceProbesLaunched int `json:"reduce_probes_launched,omitempty"`
	ReduceProbesWasted   int `json:"reduce_probes_wasted,omitempty"`
	// QueryTiers counts the triggering program's oracle-stage
	// equivalence queries by the solver-stack tier that resolved them
	// (validate.Tier* names).
	QueryTiers map[string]uint64 `json:"query_tiers,omitempty"`
}

// EngineConfig parameterizes one streaming fuzzing run.
type EngineConfig struct {
	// StartSeed is the first generator seed; Seeds is how many to try
	// (0 = unbounded, run until the context is cancelled).
	StartSeed int64
	Seeds     int64
	// Seed is the master schedule seed: it drives the generate-vs-mutate
	// split, corpus seed selection and every mutation's rand stream, so a
	// whole engine run — findings and final corpus alike — replays
	// identically for the same Seed, worker count notwithstanding.
	// (Fresh program generation stays keyed by the per-slot seed, as
	// before.)
	Seed int64
	// MutateRatio is the fraction of programs drawn by mutating corpus
	// seeds instead of fresh grammar generation (0 = pure generation;
	// mutation also requires a non-empty corpus, so early rounds always
	// generate).
	MutateRatio float64
	// SyncInterval is the corpus admission round size: coverage results
	// are folded into the corpus in canonical slot order every
	// SyncInterval programs, and mutation schedules for a round draw only
	// on the corpus as of the previous fold. That barrier is what keeps
	// the feedback loop deterministic across worker counts; it must not
	// depend on Workers (0 = default 32). A fold waits for its round's
	// compile records and for the oracle verdicts of the previous
	// round's mutants, the only verdicts that feed the corpus.
	SyncInterval int
	// Corpus is the seed pool (nil = a fresh one holding at most
	// corpus.DefaultMaxSeeds seeds). Pass a pre-loaded corpus to resume
	// from a saved -corpus directory.
	Corpus *corpus.Corpus
	// Workers sizes each heavy stage's worker pool (0 = GOMAXPROCS).
	Workers int
	// Backend selects the generator skeleton and the reference pass
	// pipeline (V1Model → BMv2 backend passes, TNA → Tofino).
	Backend generator.Backend
	// Generate overrides program generation (default:
	// generator.Generate(generator.DefaultConfig(seed)) with Backend).
	Generate func(seed int64) *ast.Program
	// Passes overrides the pass pipeline under test (tests instrument
	// seeded defects here). Default: the reference pipeline for Backend.
	Passes []compiler.Pass
	// MaxConflicts bounds every solver call.
	MaxConflicts int
	// PacketTests enables the symbolic-execution packet-test oracle in
	// addition to translation validation (which is on unless BlackBox).
	PacketTests bool
	// BlackBox disables translation validation, treating the whole
	// pipeline as opaque — the paper's back-end campaign mode, where the
	// only observable is packet behavior (§6). Defects then surface as
	// packet mismatches instead of pass-pinpointed miscompilations;
	// combine with PacketTests or no semantic oracle runs at all.
	BlackBox bool
	// ConcolicOff disables the bit-parallel concrete fast path end to
	// end: no tape falsification or hint replay under equivalence queries
	// and no concrete-trace steering in test generation — every verdict
	// goes straight to the solver, every suite enumerates in static
	// order (the PR 3–6 behavior). The finding set must be byte-identical
	// either way; this switch exists for that proof and for bisection.
	ConcolicOff bool
	// Reduce enables automatic witness shrinking of unique findings;
	// ReduceOpts bounds each reduction (its predicate re-runs the
	// oracle, so MaxPredicateCalls is the real budget).
	// ReduceOpts.Parallelism is the speculative probe window per finding
	// (0 = Workers); the engine installs a shared gate sized Workers so
	// concurrent reductions cannot oversubscribe the pool, and the
	// reduced witness set is byte-identical at any width (serial commit
	// order, serial-equivalent budgets).
	Reduce     bool
	ReduceOpts reduce.Options
	// MaxReducePerPass bounds how many semantic candidates per
	// (kind, failing pass) enter the reducer (0 = default 64). Semantic
	// findings can only be deduplicated after reduction, so a single hot
	// defect firing on most seeds would otherwise turn the pipeline into
	// a reducer farm; candidates beyond the cap are dropped as
	// duplicates. The dedup stage receives candidates only from the
	// collector, in canonical order, so which candidates the cap keeps is
	// a function of the schedule: the unique-finding set and witness
	// bytes stay worker-count-independent above the cap as well.
	MaxReducePerPass int
	// EpochPrograms bounds per-epoch memory. Every engine builds its
	// terms and caches in a private smt.Context + validation cache pair,
	// its epoch; after this many programs have been folded at round
	// boundaries, the engine rotates to a fresh pair — a fresh interner,
	// simplify memo and verdict/block cache; the retired generation is
	// reclaimed once in-flight oracle calls drain. Rotation happens only
	// at the deterministic SyncInterval-aligned fold points, so the
	// finding set for a fixed Seed budget is identical across worker
	// counts and epoch sizes (verdicts are recomputed, never changed, by
	// a fresh cache). 0 means one epoch that never rotates: the engine's
	// memory is bounded by its run (campaign-scale runs, fleet leases).
	EpochPrograms int
	// OnEpoch, when set, receives the retiring epoch's snapshot at each
	// rotation (called from the collector goroutine).
	OnEpoch func(EpochStats)
	// OnFinding, when set, streams each unique finding as the report
	// stage emits it (called from the engine's reporting goroutine).
	OnFinding func(Finding)
	// OnOracleError, when set, observes tool-limitation errors
	// (interpreter gaps, unsatisfiable test paths). They are always
	// counted in Stats.
	OnOracleError func(seed int64, err error)
	// OracleTimeout is the wall-clock watchdog for each oracle
	// inspection (0 = none). MaxConflicts bounds conflicts, not time; the
	// deadline is threaded into the SAT inner loop and the verdict
	// degrades along the ladder: full verdict → one retry at doubled
	// budgets → Unknown/TimedOut → quarantine.
	OracleTimeout time.Duration
	// StageTimeout is the per-unit stall watchdog for the supervised
	// stages (0 = none): a stage body exceeding it is abandoned and the
	// unit quarantined, so a wedged interpreter or a pathological
	// generator input costs one unit, never a worker. Stage bodies are
	// compute-only closures, which is what makes abandonment safe. Set it
	// well above OracleTimeout — the oracle ladder alone may legitimately
	// use 3× OracleTimeout (first attempt plus doubled retry).
	StageTimeout time.Duration
	// OnQuarantine, when set, receives one record per contained fault
	// (panic, stall, exhausted oracle ladder). Called from the faulting
	// stage's worker goroutine; must be concurrency-safe. Faults are
	// always counted in Stats regardless.
	OnQuarantine func(QuarantineRecord)
	// FaultHook, when set, runs at entry of every supervised stage body
	// with that unit's (stage, slot) — the deterministic fault-injection
	// point (internal/faultinject). An injected panic or stall is
	// contained exactly like an organic one; a returned error takes the
	// stage's tool-limitation path.
	FaultHook func(ctx context.Context, stage string, slot int64) error
	// KnownFindings pre-seeds the dedup fingerprint sets (the resume
	// path): a finding whose fingerprint was already reported by an
	// earlier incarnation is counted as a duplicate and never re-emitted.
	KnownFindings []uint64
	// OnCheckpoint, when set, is called from the collector goroutine at
	// fold boundaries — every CheckpointPrograms folded programs, and
	// whenever RequestCheckpoint was pending — with the next-slot
	// watermark (every slot below it is folded into the corpus; none
	// above it is). The collector is the sole corpus mutator, so the
	// callback reads a consistent corpus; it should return quickly (the
	// fold barrier waits).
	//
	// Folded is not reported. At fold r, round r's crash-family
	// candidates are at best released to dedup, not yet reduced or
	// passed to OnFinding, and its oracle verdicts are still in flight.
	// Fold r waits only for the verdicts of round r-1's mutants, so the
	// verdict of a fresh slot in round r-1 or any earlier round may be in
	// flight too. A process killed right after a checkpoint loses those
	// findings for good, because a resume starts at the watermark; the
	// shutdown checkpoint of a graceful drain likewise drops verdicts
	// still in flight for folded rounds.
	OnCheckpoint func(nextSlot int64)
	// CheckpointPrograms is the periodic checkpoint cadence in folded
	// programs (0 = only on RequestCheckpoint).
	CheckpointPrograms int
	// Obs, when set, receives the engine's metrics: per-stage latency
	// histograms, equivalence-query latency by resolution tier, and a
	// snapshot-on-read collector over Stats. Observation only — the
	// invariance contract (race-tested) is that enabling it changes
	// cost, never the finding set, witness bytes, report order or
	// corpus.
	Obs *obs.Registry
}

// DefaultSyncInterval is the corpus admission round size when
// EngineConfig.SyncInterval is zero. Exported because the fleet layer's
// lease lengths must be multiples of the effective round size for
// lease-local fold boundaries to coincide with global ones.
const DefaultSyncInterval = 32

// maxMutations bounds how many mutators stack on one mutated program.
const maxMutations = 3

// DefaultEngineConfig mirrors the sequential fuzz loop's settings on the
// streaming engine: v1model programs, validation oracle, auto-reduction.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		Seeds:        1000,
		Backend:      generator.V1Model,
		MaxConflicts: 20000,
		Reduce:       true,
		ReduceOpts:   reduce.Options{MaxRounds: 4, MaxPredicateCalls: 400},
	}
}

// Stats is a point-in-time snapshot of a running (or finished) engine:
// stage counters, throughput, shared-cache effectiveness and interner
// growth. Snapshots are cheap (atomic loads plus two lock-guarded counter
// reads) and safe to poll from any goroutine while the engine runs.
type Stats struct {
	// Stage counters.
	Generated         uint64
	Compiled          uint64
	Clean             uint64
	Crashes           uint64
	InvalidTransforms uint64
	Miscompilations   uint64
	Mismatches        uint64
	// CompileErrors are compile-stage tool limitations (e.g. a Generate
	// override emitting an ill-typed program); OracleErrors are
	// oracle-stage ones (interpreter gaps, unsatisfiable test paths).
	// The stage accounting invariants are:
	//   Generated = Crashes + InvalidTransforms + CompileErrors + Compiled
	//               + generate/compile-stage Quarantined
	//   Compiled  = Clean + Miscompilations + Mismatches + OracleErrors
	//               + oracle-stage Quarantined (Timeouts included)
	// (modulo programs still in flight when a run is cancelled).
	CompileErrors uint64
	OracleErrors  uint64
	// Dedup/reduce counters. ReducePredicateCalls counts predicate
	// invocations that actually ran (wall-clock work, speculative
	// overshoot included); ReduceSerialCalls counts the serial-equivalent
	// candidates consumed against MaxPredicateCalls budgets — identical
	// at any reduction parallelism. ReduceProbesLaunched/Wasted are the
	// speculation accounting: probes started, and probes whose results
	// were discarded because an earlier candidate committed first.
	Duplicates           uint64
	UniqueFindings       uint64
	ReducePredicateCalls uint64
	ReduceSerialCalls    uint64
	ReduceProbesLaunched uint64
	ReduceProbesWasted   uint64
	// Mutated counts programs produced by corpus mutation (a subset of
	// Generated); MutateInvalid counts mutants the type checker rejected
	// before they could reach the oracle, and MutateStale mutants
	// discarded because their AST profile was already observed (each
	// counts the rejected attempt, not the slot — a slot retries a few
	// times, then falls back to generation).
	Mutated       uint64
	MutateInvalid uint64
	MutateStale   uint64
	// Robustness counters. Quarantined counts units the supervisor
	// contained (panics, stalls and exhausted oracle ladders — Stalls and
	// Timeouts are its by-kind subsets); UnknownVerdicts counts
	// equivalence queries degraded to Unknown by budget or deadline; and
	// OracleRetries counts inspections that went through the ladder's
	// doubled-budget rung. Every fault is accounted here — a chaos run
	// must end with injected faults = Quarantined + tool errors, and zero
	// process deaths.
	Quarantined     uint64
	Stalls          uint64
	Timeouts        uint64
	UnknownVerdicts uint64
	OracleRetries   uint64
	// RecordsDropped counts JSONL/journal records the embedding process
	// failed to persist (NoteDroppedRecord) — surfaced here and on
	// /statusz so a sick sink is visible beyond a stderr line.
	RecordsDropped uint64
	// Corpus snapshots the coverage-keyed seed pool: size, admission /
	// rejection / eviction counts, distinct coverage edges and distinct
	// coverage fingerprints observed.
	Corpus corpus.Stats
	// Throughput.
	Elapsed        time.Duration
	ProgramsPerSec float64
	// Shared validation cache (hits/misses for block formulas and
	// equivalence verdicts).
	BlockHits, BlockMisses     uint64
	VerdictHits, VerdictMisses uint64
	// SimpResolved counts equivalence queries the word-level simplifier
	// (plus hash-consing) answered outright: the canonicalized miter was
	// the constant true, so no verdict lookup or solver call happened at
	// all. (Constant-false miters still take the solver path to produce a
	// counterexample and are not counted.) Cumulative across epochs.
	SimpResolved uint64
	// Concolic fast-path counters (cumulative across epochs, folded with
	// the other cache counters). TapesCompiled counts miters compiled to
	// bit-parallel tapes; ConcolicFalsified counts equivalence queries
	// answered by a concrete counterexample before any solver session was
	// built; ConcolicPackets counts concrete assignments executed (64 per
	// batch); CexReplayHits counts reduction-predicate queries decided by
	// replaying a finding's cached counterexample (miscompilation hints
	// through the tape plus mismatch test-case re-injections); and
	// SolverCallsAvoided is the sum of queries that skipped the solver
	// outright (falsified concretely or decided by replay).
	TapesCompiled      uint64
	ConcolicFalsified  uint64
	ConcolicPackets    uint64
	CexReplayHits      uint64
	SolverCallsAvoided uint64
	// Simp is the *current epoch's* simplification-cache snapshot. Epoch
	// scoping is deliberate: a process-lifetime snapshot asymptotes to a
	// stale rate on long runs, while a per-epoch one tracks the current
	// regime (and is exactly the memory the next rotation reclaims).
	Simp smt.SimplifyInfo
	// GatesBuilt and GatesReused are the process-wide structural gate
	// cache counters from the bit-blaster: gates encoded fresh versus gate
	// constructions answered by an existing literal. A high reuse rate
	// means near-identical circuits collapsed before CDCL search.
	// EpochGatesBuilt/EpochGatesReused are the same counters as deltas
	// since the current epoch began — the rate long runs should watch.
	GatesBuilt, GatesReused           uint64
	EpochGatesBuilt, EpochGatesReused uint64
	// Interner is the *current epoch's* term-interner snapshot — the
	// memory-bound observable: with rotation enabled it plateaus instead
	// of growing for the process lifetime.
	Interner smt.InternerInfo
	// Epoch is the current epoch index (0 until the first rotation) and
	// EpochProgramCount the programs folded into the corpus during it.
	Epoch             int
	EpochProgramCount uint64
}

// EpochStats is the retiring epoch's snapshot, emitted at each context
// rotation: how much term/cache memory the epoch accumulated (and the
// rotation reclaimed), plus its share of the global counters.
type EpochStats struct {
	// Index is the retiring epoch's number (0-based).
	Index int `json:"index"`
	// Programs is how many programs were folded during the epoch.
	Programs uint64 `json:"programs"`
	// Context is the epoch's interner + simplify-memo snapshot at
	// retirement: the bytes/entries reclaimed by the rotation.
	Context smt.ContextStats `json:"context"`
	// Cache and GatesBuilt/GatesReused are the epoch's share of the
	// validation-cache and structural gate-cache counters: deltas from
	// the epoch's start to the next epoch's.
	Cache       validate.CacheStats `json:"cache"`
	GatesBuilt  uint64              `json:"gates_built"`
	GatesReused uint64              `json:"gates_reused"`
}

// Summary renders the snapshot as a short multi-line report.
func (s Stats) Summary() string {
	rate := func(h, m uint64) float64 {
		if h+m == 0 {
			return 0
		}
		return 100 * float64(h) / float64(h+m)
	}
	return fmt.Sprintf(
		"programs: %d generated (%d by mutation), %d compiled, %d clean (%.1f/sec over %v)\n"+
			"findings: %d unique (%d crash, %d invalid-transform, %d miscompilation, %d packet-mismatch raw; %d duplicates), %d tool limitations\n"+
			"corpus: %d seeds (%d admitted, %d rejected, %d evicted; %.1f%% admission); %d coverage edges, %d fingerprints; mutants rejected: %d invalid, %d stale\n"+
			"caches: block %.1f%% hit, verdict %.1f%% hit; reduction: %d predicate calls (%d serial-equivalent, %d probes launched, %d wasted)\n"+
			"solver: %d equivalence queries resolved by simplification alone; simp cache %.1f%% hit (%d entries); gates %d built, %d reused (%.1f%%)\n"+
			"concolic: %d tapes compiled, %d queries falsified concretely (%d packets), %d counterexample replays; %d solver calls avoided\n"+
			"epoch %d: %d programs, interner %d terms (~%.1f MiB, %d/%d shards occupied), gates %d built %d reused this epoch\n"+
			"robustness: %d quarantined (%d stalls, %d oracle timeouts), %d unknown verdicts, %d ladder retries, %d records dropped",
		s.Generated, s.Mutated, s.Compiled, s.Clean, s.ProgramsPerSec, s.Elapsed.Round(time.Millisecond),
		s.UniqueFindings, s.Crashes, s.InvalidTransforms, s.Miscompilations, s.Mismatches,
		s.Duplicates, s.CompileErrors+s.OracleErrors,
		s.Corpus.Seeds, s.Corpus.Admitted, s.Corpus.Rejected, s.Corpus.Evicted,
		rate(s.Corpus.Admitted, s.Corpus.Rejected), s.Corpus.Edges, s.Corpus.Fingerprints,
		s.MutateInvalid, s.MutateStale,
		rate(s.BlockHits, s.BlockMisses), rate(s.VerdictHits, s.VerdictMisses),
		s.ReducePredicateCalls, s.ReduceSerialCalls, s.ReduceProbesLaunched, s.ReduceProbesWasted,
		s.SimpResolved, rate(s.Simp.Hits, s.Simp.Misses), s.Simp.Entries,
		s.GatesBuilt, s.GatesReused, rate(s.GatesReused, s.GatesBuilt),
		s.TapesCompiled, s.ConcolicFalsified, s.ConcolicPackets,
		s.CexReplayHits, s.SolverCallsAvoided,
		s.Epoch, s.EpochProgramCount,
		s.Interner.Entries, float64(s.Interner.BytesEstimate)/(1<<20),
		s.Interner.OccupiedShards, s.Interner.Shards,
		s.EpochGatesBuilt, s.EpochGatesReused,
		s.Quarantined, s.Stalls, s.Timeouts, s.UnknownVerdicts, s.OracleRetries,
		s.RecordsDropped)
}

// OneLine renders the snapshot as a single human-readable line — the
// SIGHUP stderr summary, for operators without a JSONL tail.
func (s Stats) OneLine() string {
	return fmt.Sprintf(
		"programs=%d (%.1f/sec) findings=%d dups=%d corpus=%d epoch=%d quarantined=%d timeouts=%d dropped=%d elapsed=%s",
		s.Generated, s.ProgramsPerSec, s.UniqueFindings, s.Duplicates,
		s.Corpus.Seeds, s.Epoch, s.Quarantined, s.Timeouts, s.RecordsDropped,
		s.Elapsed.Round(time.Second))
}

// Engine is the streaming, stage-parallel fuzzing pipeline:
//
//	generate → compile → oracle → fingerprint/dedup → auto-reduce → report
//
// Stages are connected by bounded channels and run on per-stage worker
// pools; cancellation flows through a context checked at every stage (and
// inside validation, test generation and reduction). Workers isolate all
// mutable state — each program gets its own compiler and solver sessions —
// and share only the hash-consed term interner and the validation cache,
// both concurrency-safe. That sharing is what makes N workers nearly N×
// faster without perturbing results: the unique-finding set is identical
// for any worker count over the same seed range.
type Engine struct {
	cfg    EngineConfig
	oracle *Oracle
	corpus *corpus.Corpus

	// epoch is the current (smt context, validation cache) pair. Every
	// oracle call binds it once, on its own copy of the oracle
	// (epochOracle); the collector swaps it at EpochPrograms-aligned fold
	// boundaries. All epochs' caches count into one counter block.
	epoch atomic.Pointer[epochState]
	// programsFolded counts programs folded into the corpus at round
	// boundaries — the deterministic epoch clock.
	programsFolded atomic.Uint64
	// epochMu orders a rotation against Stats reading the current
	// epoch's baselines: both the swap and the read happen under it, so
	// no epoch's deltas are taken against another epoch's baselines.
	epochMu sync.Mutex

	startNano atomic.Int64
	endNano   atomic.Int64

	generated, compiled, clean                 atomic.Uint64
	compileErrors, oracleErrors                atomic.Uint64
	duplicates, unique                         atomic.Uint64
	reduceCalls                                atomic.Uint64
	reduceSerial, probesLaunched, probesWasted atomic.Uint64
	mutated, mutateInvalid, mutateStale        atomic.Uint64
	quarantined, stalls, timeouts              atomic.Uint64
	unknownVerdicts, oracleRetries             atomic.Uint64
	mismatchReplays                            atomic.Uint64
	recordsDropped                             atomic.Uint64
	// found counts raw (pre-dedup) findings by kind.
	found [FindingMismatch + 1]atomic.Uint64

	// lastFoldNano is the wall-clock time of the most recent round fold
	// (or Run start) — the liveness signal behind Health: a wedged
	// pipeline stops folding, a healthy one folds every round.
	lastFoldNano atomic.Int64

	// metrics is the optional introspection plane (EngineConfig.Obs):
	// per-stage and per-tier latency histograms. Nil when no registry is
	// attached; every hot-path touch is behind one nil check.
	metrics *engineMetrics

	// checkpointReq is the on-demand checkpoint flag (SIGHUP's path): the
	// collector consumes it at the next fold boundary.
	checkpointReq atomic.Bool

	// reduceGate bounds concurrent reduction-predicate executions across
	// all findings reducing at once: per-finding speculation widens the
	// probe window, the gate keeps the total at the worker-pool size.
	reduceGate chan struct{}
}

// epochState is one epoch's scoped solver-stack state: the smt context
// all terms are built in and the validation cache bound to it, plus the
// baselines needed to report per-epoch deltas of cumulative counters.
type epochState struct {
	index                           int
	ctx                             *smt.Context
	cache                           *validate.Cache
	startPrograms                   uint64
	baseGatesBuilt, baseGatesReused uint64
	baseCache                       validate.CacheStats
}

// NewEngine builds an engine, filling config defaults (worker count,
// pipeline for the backend), and its first epoch.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxConflicts == 0 {
		cfg.MaxConflicts = 20000
	}
	if cfg.MaxReducePerPass <= 0 {
		cfg.MaxReducePerPass = 64
	}
	if cfg.ReduceOpts.Parallelism <= 0 {
		cfg.ReduceOpts.Parallelism = cfg.Workers
	}
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = DefaultSyncInterval
	}
	if cfg.MutateRatio < 0 {
		cfg.MutateRatio = 0
	}
	if cfg.MutateRatio > 1 {
		cfg.MutateRatio = 1
	}
	if cfg.Corpus == nil {
		cfg.Corpus = corpus.New(0)
	}
	if cfg.Passes == nil {
		cfg.Passes, _ = Pipeline(PlatformOf(cfg.Backend)) // without defects it cannot fail
	}
	if cfg.Generate == nil {
		backend := cfg.Backend
		cfg.Generate = func(seed int64) *ast.Program {
			gc := generator.DefaultConfig(seed)
			gc.Backend = backend
			return generator.Generate(gc)
		}
	}
	testOpts := testgen.DefaultOptions()
	testOpts.DisableSteering = cfg.ConcolicOff
	e := &Engine{
		cfg:    cfg,
		corpus: cfg.Corpus,
		oracle: &Oracle{
			Passes:       cfg.Passes,
			MaxConflicts: cfg.MaxConflicts,
			TestOpts:     testOpts,
			Validate:     !cfg.BlackBox,
			PacketTests:  cfg.PacketTests,
			Timeout:      cfg.OracleTimeout,
			// Concolic batch inputs derive from (Seed, miter structure)
			// only — the same batches on every worker, every run.
			Concolic: validate.Concolic{Disable: cfg.ConcolicOff, Seed: uint64(cfg.Seed)},
		},
	}
	// Epoch 0 is private like every later one: the immortal default
	// context sees no engine terms at all.
	ctx := smt.NewContext()
	gb, gr := solver.GateStats()
	e.epoch.Store(&epochState{
		ctx:            ctx,
		cache:          validate.NewCacheIn(ctx),
		baseGatesBuilt: gb, baseGatesReused: gr,
	})
	// The gate is sized to the worker pool, not to Parallelism×findings:
	// however many findings reduce at once, at most Workers predicates
	// run concurrently.
	e.reduceGate = make(chan struct{}, cfg.Workers)
	if cfg.Obs != nil {
		e.metrics = newEngineMetrics(cfg.Obs)
		cfg.Obs.Collect(e.emitStats)
	}
	return e
}

// Stage indices for the per-stage latency histograms.
const (
	stageGenerate = iota
	stageCompile
	stageOracle
	stageDedup
	stageReduce
	numStages
)

var stageNames = [numStages]string{"generate", "compile", "oracle", "dedup", "reduce"}

// engineMetrics holds the engine's eagerly registered histograms,
// resolved once at construction so the hot path never takes the
// registry lock. The maps/arrays are read-only after newEngineMetrics;
// the histograms themselves are sharded and concurrency-safe.
type engineMetrics struct {
	stageDur [numStages]*obs.Histogram
	tierDur  map[string]*obs.Histogram
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	m := &engineMetrics{tierDur: make(map[string]*obs.Histogram, 5)}
	for i, name := range stageNames {
		m.stageDur[i] = r.Histogram("gauntlet_stage_duration_seconds",
			"Wall-clock latency of one unit through each engine stage (supervised body, watchdog included).",
			obs.Labels{"stage": name})
	}
	for _, tier := range []string{
		validate.TierSimplified, validate.TierCacheHit, validate.TierHintReplay,
		validate.TierConcolic, validate.TierCDCL,
	} {
		m.tierDur[tier] = r.Histogram("gauntlet_equivalence_query_duration_seconds",
			"Equivalence-query latency split by the solver-stack tier that resolved the query.",
			obs.Labels{"tier": tier})
	}
	return m
}

// observeQuery feeds the per-tier histogram; shaped as a method so it
// plugs straight into Oracle.QueryObs.
func (m *engineMetrics) observeQuery(tier string, d time.Duration) {
	if h := m.tierDur[tier]; h != nil {
		h.Observe(d)
	}
}

// emitStats is the registry collector: one Stats snapshot per scrape,
// re-emitted as gauntlet_* series. Counter vs gauge follows whether the
// underlying field is monotonic.
func (e *Engine) emitStats(em *obs.Emit) {
	s := e.Stats()
	c := func(name, help string, v uint64) {
		em.Counter("gauntlet_"+name, help, nil, float64(v))
	}
	g := func(name, help string, v float64) {
		em.Gauge("gauntlet_"+name, help, nil, v)
	}
	c("programs_generated_total", "Programs materialized (generation + mutation).", s.Generated)
	c("programs_mutated_total", "Programs produced by corpus mutation (subset of generated).", s.Mutated)
	c("programs_compiled_total", "Programs that survived every pass.", s.Compiled)
	c("programs_clean_total", "Programs the oracle found bug-free.", s.Clean)
	c("findings_crash_total", "Crash findings (raw, pre-dedup).", s.Crashes)
	c("findings_invalid_transform_total", "Invalid-transform findings (raw, pre-dedup).", s.InvalidTransforms)
	c("findings_miscompilation_total", "Miscompilation findings (raw, pre-dedup).", s.Miscompilations)
	c("findings_mismatch_total", "Packet-mismatch findings (raw, pre-dedup).", s.Mismatches)
	c("findings_unique_total", "Unique findings after dedup.", s.UniqueFindings)
	c("findings_duplicate_total", "Findings dropped as duplicates.", s.Duplicates)
	c("tool_errors_compile_total", "Compile-stage tool limitations.", s.CompileErrors)
	c("tool_errors_oracle_total", "Oracle-stage tool limitations.", s.OracleErrors)
	c("mutants_invalid_total", "Mutants rejected by the type checker.", s.MutateInvalid)
	c("mutants_stale_total", "Mutants rejected as behaviourally stale.", s.MutateStale)
	c("reduce_predicate_calls_total", "Reduction predicate invocations that ran.", s.ReducePredicateCalls)
	c("reduce_serial_calls_total", "Serial-equivalent reduction candidates consumed.", s.ReduceSerialCalls)
	c("reduce_probes_launched_total", "Speculative reduction probes launched.", s.ReduceProbesLaunched)
	c("reduce_probes_wasted_total", "Speculative reduction probes discarded.", s.ReduceProbesWasted)
	c("quarantined_total", "Units contained by the supervisor (panics, stalls, exhausted ladders).", s.Quarantined)
	c("stalls_total", "Stage stalls abandoned by the watchdog.", s.Stalls)
	c("oracle_timeouts_total", "Inspections that exhausted the oracle escalation ladder.", s.Timeouts)
	c("unknown_verdicts_total", "Equivalence queries degraded to Unknown.", s.UnknownVerdicts)
	c("oracle_retries_total", "Inspections retried at doubled budgets.", s.OracleRetries)
	c("records_dropped_total", "JSONL/journal records the embedding process failed to persist.", s.RecordsDropped)
	c("cache_block_hits_total", "Block-formula cache hits.", s.BlockHits)
	c("cache_block_misses_total", "Block-formula cache misses.", s.BlockMisses)
	c("cache_verdict_hits_total", "Verdict cache hits.", s.VerdictHits)
	c("cache_verdict_misses_total", "Verdict cache misses.", s.VerdictMisses)
	c("queries_simplified_total", "Equivalence queries answered by simplification alone.", s.SimpResolved)
	c("tapes_compiled_total", "Miters compiled to bit-parallel tapes.", s.TapesCompiled)
	c("concolic_falsified_total", "Equivalence queries falsified concretely before any solver session.", s.ConcolicFalsified)
	c("concolic_packets_total", "Concrete assignments executed by tapes.", s.ConcolicPackets)
	c("cex_replay_hits_total", "Reduction queries decided by counterexample replay.", s.CexReplayHits)
	c("solver_calls_avoided_total", "Queries that skipped the solver outright.", s.SolverCallsAvoided)
	c("gates_built_total", "Structural gates encoded fresh (process-wide).", s.GatesBuilt)
	c("gates_reused_total", "Gate constructions answered by an existing literal (process-wide).", s.GatesReused)
	c("corpus_admitted_total", "Programs admitted to the corpus.", s.Corpus.Admitted)
	c("corpus_rejected_total", "Programs rejected by corpus admission.", s.Corpus.Rejected)
	c("corpus_evicted_total", "Seeds evicted from the corpus.", s.Corpus.Evicted)
	g("corpus_seeds", "Seeds currently in the corpus.", float64(s.Corpus.Seeds))
	g("corpus_edges", "Distinct coverage edges observed.", float64(s.Corpus.Edges))
	g("corpus_fingerprints", "Distinct coverage fingerprints observed.", float64(s.Corpus.Fingerprints))
	g("epoch", "Current epoch index.", float64(s.Epoch))
	g("epoch_programs", "Programs folded during the current epoch.", float64(s.EpochProgramCount))
	g("interner_entries", "Current epoch's interned-term count.", float64(s.Interner.Entries))
	g("interner_bytes_estimate", "Current epoch's interner memory estimate.", float64(s.Interner.BytesEstimate))
	g("simp_cache_entries", "Current epoch's simplification-memo entries.", float64(s.Simp.Entries))
	g("programs_per_sec", "Generation throughput over the run so far.", s.ProgramsPerSec)
}

// Health is the engine's liveness view, keyed off round-fold progress:
// the collector folds a round every SyncInterval programs, so a
// pipeline that stops folding while Running is wedged. LastProgress is
// the wall-clock time of the most recent fold (Run start before the
// first fold); zero before Run.
type Health struct {
	Running        bool      `json:"running"`
	ProgramsFolded uint64    `json:"programs_folded"`
	LastProgress   time.Time `json:"last_progress"`
}

// Health snapshots liveness. Safe from any goroutine at any time.
func (e *Engine) Health() Health {
	h := Health{ProgramsFolded: e.programsFolded.Load()}
	h.Running = e.startNano.Load() != 0 && e.endNano.Load() == 0
	if lf := e.lastFoldNano.Load(); lf != 0 {
		h.LastProgress = time.Unix(0, lf)
	}
	return h
}

// NoteDroppedRecord counts one persistence failure in the embedding
// process (a JSONL or journal record that could not be written), so
// sink sickness shows up in Stats and on /statusz instead of only on
// stderr.
func (e *Engine) NoteDroppedRecord() { e.recordsDropped.Add(1) }

// rotateEpoch retires the current epoch and installs a fresh smt context
// + validation cache. Called only from the collector at a fold boundary;
// in-flight oracle calls finish on the pair they captured, and the old
// generation becomes garbage when the last of them drains. The fresh
// context is re-seeded lazily: the corpus' live seed programs re-intern
// their block formulas on first validation touch, and nothing else from
// the retired epoch survives. The retiring epoch's counters are deltas
// up to the new epoch's baselines, so a call still in flight on the old
// pair counts toward the new epoch and never goes missing.
func (e *Engine) rotateEpoch() {
	old := e.epoch.Load()
	ctx := smt.NewContext()
	e.epochMu.Lock()
	gb, gr := solver.GateStats()
	next := &epochState{
		index:          old.index + 1,
		ctx:            ctx,
		cache:          old.cache.Next(ctx),
		startPrograms:  e.programsFolded.Load(),
		baseGatesBuilt: gb, baseGatesReused: gr,
		baseCache: old.cache.Snapshot(),
	}
	e.epoch.Store(next)
	e.epochMu.Unlock()
	if e.cfg.OnEpoch != nil {
		e.cfg.OnEpoch(EpochStats{
			Index:       old.index,
			Programs:    next.startPrograms - old.startPrograms,
			Context:     old.ctx.Stats(),
			Cache:       next.baseCache.Sub(old.baseCache),
			GatesBuilt:  gb - old.baseGatesBuilt,
			GatesReused: gr - old.baseGatesReused,
		})
	}
}

// epochOracle returns a copy of o bound to the current epoch's cache. An
// oracle call binds once, so it never mixes two epochs' terms.
func (e *Engine) epochOracle(o *Oracle) *Oracle {
	b := *o
	b.Cache = e.epoch.Load().cache
	return &b
}

// Oracle exposes the engine's shared oracle stage (the same one
// Campaign.Hunt builds per bug), bound to the current epoch.
func (e *Engine) Oracle() *Oracle { return e.epochOracle(e.oracle) }

// RequestCheckpoint asks the collector to fire OnCheckpoint at the next
// fold boundary (the SIGHUP "snapshot now" path). Safe from any
// goroutine; a no-op when OnCheckpoint is unset. The request coalesces:
// several calls before the next fold produce one checkpoint.
func (e *Engine) RequestCheckpoint() { e.checkpointReq.Store(true) }

// Corpus exposes the engine's seed pool (for saving after a run, or for
// inspecting the admitted coverage fingerprints).
func (e *Engine) Corpus() *corpus.Corpus { return e.corpus }

// Stats snapshots the engine's counters. Valid at any time; throughput is
// measured from Run's start to now (or to Run's return).
func (e *Engine) Stats() Stats {
	s := Stats{
		Generated:            e.generated.Load(),
		Compiled:             e.compiled.Load(),
		Clean:                e.clean.Load(),
		Crashes:              e.found[FindingCrash].Load(),
		InvalidTransforms:    e.found[FindingInvalidTransform].Load(),
		Miscompilations:      e.found[FindingMiscompilation].Load(),
		Mismatches:           e.found[FindingMismatch].Load(),
		CompileErrors:        e.compileErrors.Load(),
		OracleErrors:         e.oracleErrors.Load(),
		Duplicates:           e.duplicates.Load(),
		UniqueFindings:       e.unique.Load(),
		ReducePredicateCalls: e.reduceCalls.Load(),
		ReduceSerialCalls:    e.reduceSerial.Load(),
		ReduceProbesLaunched: e.probesLaunched.Load(),
		ReduceProbesWasted:   e.probesWasted.Load(),
		Mutated:              e.mutated.Load(),
		MutateInvalid:        e.mutateInvalid.Load(),
		MutateStale:          e.mutateStale.Load(),
		Quarantined:          e.quarantined.Load(),
		Stalls:               e.stalls.Load(),
		Timeouts:             e.timeouts.Load(),
		UnknownVerdicts:      e.unknownVerdicts.Load(),
		OracleRetries:        e.oracleRetries.Load(),
		RecordsDropped:       e.recordsDropped.Load(),
		Corpus:               e.corpus.Stats(),
	}
	// The epoch-scoped readings (fold count, gate counters) must come
	// from inside the same critical section that loads ep: rotation
	// swaps baselines under this lock, so reading them outside would
	// attribute the next epoch's activity to this epoch's baselines.
	e.epochMu.Lock()
	ep := e.epoch.Load()
	folded := e.programsFolded.Load()
	gb, gr := solver.GateStats()
	e.epochMu.Unlock()
	cs := ep.cache.Snapshot()
	s.Epoch = ep.index
	s.EpochProgramCount = folded - ep.startPrograms
	s.Simp = ep.ctx.SimplifyStats()
	s.Interner = ep.ctx.InternerStats()
	s.GatesBuilt, s.GatesReused = gb, gr
	s.EpochGatesBuilt = gb - ep.baseGatesBuilt
	s.EpochGatesReused = gr - ep.baseGatesReused
	s.BlockHits, s.BlockMisses = cs.BlockHits, cs.BlockMisses
	s.VerdictHits, s.VerdictMisses = cs.VerdictHits, cs.VerdictMisses
	s.SimpResolved = cs.SimpResolved
	s.TapesCompiled = cs.TapesCompiled
	s.ConcolicFalsified = cs.ConcolicFalsified
	s.ConcolicPackets = cs.ConcolicPackets
	s.CexReplayHits = cs.ReplayHits + e.mismatchReplays.Load()
	s.SolverCallsAvoided = s.ConcolicFalsified + s.CexReplayHits
	if start := e.startNano.Load(); start != 0 {
		end := e.endNano.Load()
		if end == 0 {
			end = time.Now().UnixNano()
		}
		s.Elapsed = time.Duration(end - start)
		if secs := s.Elapsed.Seconds(); secs > 0 {
			s.ProgramsPerSec = float64(s.Generated) / secs
		}
	}
	return s
}

// unit is a program moving between the generate, compile and oracle
// stages. prof is the AST coverage profile when the generate stage
// already computed one (mutants profile themselves for the novelty
// check); the compile stage fills it in otherwise.
type unit struct {
	seed    int64
	prog    *ast.Program
	res     *compiler.Result
	prof    *coverage.Profile
	mutated bool
	// baseID is the corpus seed the program was mutated from (-1 for
	// fresh generation): the dynamic-energy feedback target.
	baseID int
	// skip marks a unit whose generate stage was quarantined: it still
	// flows to the compile stage so its slot's covRec reaches the
	// collector (whose buffers release by slot, so a missing record would
	// hold back every later fold), but no program is compiled.
	skip bool
	// prov is the provenance trace under construction: each stage fills
	// its fields in, and whichever stage produces a finding attaches the
	// pointer. Nil for skipped units. A unit produces at most one
	// finding (crash-family XOR oracle), so the pointer is never shared
	// between two findings.
	prov *Provenance
}

// task is one scheduled program slot: fresh grammar generation from the
// slot seed, or mutation of corpus seeds under a slot-derived rand stream.
// Tasks are pure values — a task replayed on any worker produces the same
// program.
type task struct {
	slot        int64
	mutate      bool
	base, donor *corpus.Seed
	rngSeed     int64
}

// covRec is a compile-stage coverage report flowing to the admission
// collector: exactly one per scheduled slot that reaches the compile
// stage (cancellation aside) — including quarantined slots, which report
// a nil prof that counts the fold but is never admitted. astFP is the
// profile's fingerprint before pass-trace edges were folded in — the
// novelty key the mutation pre-filter tests against.
type covRec struct {
	slot  int64
	prog  *ast.Program
	prof  *coverage.Profile
	astFP uint64
	// baseID is the mutation base's corpus seed ID (-1 = fresh
	// generation) and crashed whether the program produced a
	// crash/invalid-transform finding at the compile stage — the two
	// deterministic inputs to the energy fold.
	baseID  int
	crashed bool
	// toOracle marks a unit forwarded to the oracle stage; for any other
	// slot the collector fills in the empty oracle candidate itself.
	toOracle bool
	// finding carries the slot's crash/invalid-transform candidate, if
	// any. Candidates ride the coverage record instead of a free-running
	// channel so the collector can release them in canonical order —
	// which concrete program represents a deduplicated fingerprint, and
	// hence the reduced witness bytes, must not depend on worker
	// interleaving.
	finding *Finding
}

// orRec is an oracle-stage verdict report flowing to the admission
// collector: exactly one per unit the compile stage forwarded to the
// oracle (cancellation aside), including quarantined and errored units,
// which report a nil finding so the collector's streams pass their
// slots. Oracle findings (miscompilations, mismatches) surface after
// their own round has folded: the candidate is released behind its
// round's crash-family candidates, and a finding on a mutant (baseID >=
// 0) bumps its base's energy at the next fold, which waits for every
// mutant verdict of the round before it. Both go in canonical slot
// order, preserving -seed replay and worker-count determinism.
type orRec struct {
	slot    int64
	baseID  int
	finding *Finding
}

// Dynamic-energy bump fractions (of a seed's admission energy), folded
// at round boundaries: a mutant earning corpus admission is mild
// evidence its base is productive; a mutant producing a finding —
// compile-stage or oracle-stage — is strong evidence. Compile-stage
// findings fold with their own round's admissions; oracle-stage findings
// on mutants (miscompilations, mismatches) surface after that fold has
// passed, so they fold at the next boundary, which waits for every
// mutant verdict of the round before it (see orRec). A fresh program
// has no base, so its verdict bumps nothing and no fold waits for it.
const (
	admissionBump = 0.5
	findingBump   = 1.0
)

// mix derives a per-slot rand seed from the master schedule seed
// (splitmix64-style finalizer, so adjacent slots decorrelate).
func mix(seed, slot int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(slot+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// originOf renders a unit's provenance for Finding.Origin.
func originOf(mutated bool) string {
	if mutated {
		return "mutate"
	}
	return "generate"
}

// materialize turns a task into a program. Mutation tasks retry a few
// draws, cheaply rejecting ill-typed mutants with the type checker — the
// oracle only ever sees programs that type-check — and behaviourally
// stale ones with the corpus's observed-fingerprint set (a mutant whose
// AST profile was already tested would spend an oracle slot re-proving a
// known verdict). Exhausted tasks fall back to fresh generation, so every
// slot yields exactly one program. The returned names are the applied
// mutators (provenance), empty for fresh generation.
func (e *Engine) materialize(t task) (*ast.Program, *coverage.Profile, []string, bool) {
	if t.mutate {
		r := rand.New(rand.NewSource(t.rngSeed))
		var donor *ast.Program
		if t.donor != nil {
			donor = t.donor.Program
		}
		for try := 0; try < 4; try++ {
			m, names, ok := mutate.Program(r, t.base.Program, donor, maxMutations)
			if !ok {
				break
			}
			if types.Check(ast.CloneProgram(m)) != nil {
				e.mutateInvalid.Add(1)
				continue
			}
			prof := coverage.OfProgram(m)
			if e.corpus.SeenProgram(prof.Fingerprint()) {
				e.mutateStale.Add(1)
				continue
			}
			// Hand the profile downstream: the compile stage folds the
			// pass trace into it rather than re-walking the AST.
			return m, prof, names, true
		}
	}
	return e.cfg.Generate(t.slot), nil, nil, false
}

// Run executes the pipeline until the seed range is exhausted or ctx is
// cancelled, and returns the unique findings (deduplicated by fingerprint,
// reduced when enabled). It is safe to poll Stats concurrently; Run itself
// must not be called twice on one Engine.
func (e *Engine) Run(ctx context.Context) []Finding {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	e.startNano.Store(time.Now().UnixNano())
	// Liveness baseline: a run that has not folded its first round yet is
	// "in progress since start", not wedged.
	e.lastFoldNano.Store(time.Now().UnixNano())
	defer func() { e.endNano.Store(time.Now().UnixNano()) }()

	r := e.newRun(ctx)
	go r.schedule()
	r.pool(r.generate, func() { close(r.genCh) })
	go r.collect()
	r.pool(r.compile, func() { close(r.compCh); close(r.covCh) })
	r.pool(r.inspect, func() { close(r.orCh) })
	go r.dedup()
	r.pool(r.reduce, func() { close(r.outCh) })
	findings := r.report()
	// Let the collector fold the final round before Run returns, so the
	// corpus callers see (save, fingerprint sets) is the finished one.
	<-r.collectorDone
	return findings
}

// run is one Engine.Run's state: the channels linking the stages and
// the round geometry they share. Each stage is a method on it:
//
//	schedule → generate → compile → inspect → collect → dedup → reduce → report
//
// The collector sits between the heavy stages and dedup: every
// candidate reaches dedup through it, in canonical order.
type run struct {
	e   *Engine
	ctx context.Context
	// roundSize is the admission round length (SyncInterval); limit is
	// the first slot past a bounded run's budget (MaxInt64 when
	// unbounded).
	roundSize, limit int64

	taskCh chan task    // schedule → generate
	genCh  chan unit    // generate → compile
	compCh chan unit    // compile → inspect
	covCh  chan covRec  // compile → collect, one per slot
	orCh   chan orRec   // inspect → collect, one per forwarded slot
	candCh chan Finding // collect → dedup
	redCh  chan Finding // dedup → reduce
	outCh  chan Finding // reduce → report
	// foldCh carries "round folded" signals from the collector to the
	// scheduler. At most one signal is ever outstanding (the scheduler
	// consumes fold r before emitting round r+1, and fold r+1 cannot
	// complete before round r+1 is fully emitted), so capacity 1 with a
	// non-blocking send never drops.
	foldCh        chan struct{}
	collectorDone chan struct{}
}

// newRun builds the state of one Run under ctx.
func (e *Engine) newRun(ctx context.Context) *run {
	// Every inter-stage channel holds two units per worker: enough slack
	// that a stage rarely stalls on its neighbour's jitter, while the
	// programs in flight stay proportional to the pool.
	qd := 2 * e.cfg.Workers
	r := &run{
		e: e, ctx: ctx,
		roundSize:     int64(e.cfg.SyncInterval),
		limit:         math.MaxInt64,
		taskCh:        make(chan task, qd),
		genCh:         make(chan unit, qd),
		compCh:        make(chan unit, qd),
		covCh:         make(chan covRec, qd),
		orCh:          make(chan orRec, qd),
		candCh:        make(chan Finding, qd),
		redCh:         make(chan Finding, qd),
		outCh:         make(chan Finding, qd),
		foldCh:        make(chan struct{}, 1),
		collectorDone: make(chan struct{}),
	}
	if e.cfg.Seeds > 0 {
		r.limit = e.cfg.StartSeed + e.cfg.Seeds
	}
	return r
}

// roundEnd is the first slot past round k (the run's start for k = -1).
func (r *run) roundEnd(k int64) int64 {
	return min(r.e.cfg.StartSeed+(k+1)*r.roundSize, r.limit)
}

// releasePos is the position of slot's crash-family candidate, or of its
// oracle candidate, in the canonical release sequence: round by round,
// the round's crash-family candidates, then its oracle candidates, each
// in slot order. Every slot holds one position of each kind.
func (r *run) releasePos(slot int64, oracle bool) int64 {
	k := (slot - r.e.cfg.StartSeed) / r.roundSize
	pos := slot - r.e.cfg.StartSeed + k*r.roundSize
	if oracle {
		pos += r.roundEnd(k) - r.roundEnd(k-1)
	}
	return pos
}

// pool runs stage on Workers goroutines and calls done once all of them
// have returned.
func (r *run) pool(stage func(w int), done func()) {
	var wg sync.WaitGroup
	for w := 0; w < r.e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stage(w)
		}()
	}
	go func() { wg.Wait(); done() }()
}

// supervised runs one unit's body for a supervised stage (generate,
// compile, inspect or reduce) on worker w: the fault-injection hook, then
// fn, both under supervise. It measures the stage latency around
// supervise, in this goroutine — an abandoned stalled closure may still
// be writing, so nothing it touches is read on the fault path — and
// records it unless the run was cancelled.
func (r *run) supervised(stage, w int, slot int64, fn func() error) (time.Duration, error, *stageFault, bool) {
	start := time.Now()
	err, fault, cancelled := supervise(r.ctx, r.e.cfg.StageTimeout, func() error {
		if err := r.e.injectFault(r.ctx, stageNames[stage], slot); err != nil {
			return err
		}
		return fn()
	})
	if cancelled {
		return 0, nil, nil, true
	}
	elapsed := time.Since(start)
	if m := r.e.metrics; m != nil {
		m.stageDur[stage].ObserveShard(w, elapsed)
	}
	return elapsed, err, fault, false
}

// schedule decides, slot by slot, whether the program comes from fresh
// grammar generation or from mutating corpus seeds, all under the master
// Seed's rand stream. Mutation decisions for a round draw only on the
// corpus as of the previous round's fold, so the schedule — and with it
// the finding set and the final corpus — is a pure function of the
// configuration, independent of worker count and channel interleaving.
func (r *run) schedule() {
	defer close(r.taskCh)
	e := r.e
	sched := rand.New(rand.NewSource(e.cfg.Seed))
	for slot, inRound := e.cfg.StartSeed, int64(0); slot < r.limit; slot++ {
		if inRound == r.roundSize {
			inRound = 0
			if e.cfg.MutateRatio > 0 {
				select {
				case <-r.foldCh:
				case <-r.ctx.Done():
					return
				}
			}
		}
		inRound++
		t := task{slot: slot, rngSeed: mix(e.cfg.Seed, slot)}
		if e.cfg.MutateRatio > 0 && sched.Float64() < e.cfg.MutateRatio {
			t.base = e.corpus.Select(sched)
			t.donor = e.corpus.Select(sched)
			t.mutate = t.base != nil
		}
		if !send(r.ctx, r.taskCh, t) {
			return
		}
	}
}

// generate materializes tasks — grammar generation or corpus mutation
// plus the cheap type-check gate. Each task is a pure value, so
// parallelism cannot perturb the schedule.
func (r *run) generate(w int) {
	e := r.e
	for t := range r.taskCh {
		u := unit{seed: t.slot, baseID: -1}
		var names []string
		elapsed, err, fault, cancelled := r.supervised(stageGenerate, w, t.slot, func() error {
			u.prog, u.prof, names, u.mutated = e.materialize(t)
			return nil
		})
		if cancelled {
			return
		}
		e.generated.Add(1)
		switch {
		case fault != nil:
			// The slot still ships downstream (skip) so its covRec
			// reaches the collector; only the program is lost.
			e.quarantine("generate", t.slot, originOf(t.mutate), nil, fault)
			u = unit{seed: t.slot, baseID: -1, skip: true}
		case err != nil:
			// Injected/stage error: a tool limitation, not a bug.
			e.toolError(&e.compileErrors, t.slot, err)
			u = unit{seed: t.slot, baseID: -1, skip: true}
		default:
			if u.mutated {
				e.mutated.Add(1)
				u.baseID = t.base.ID
			}
			u.prov = &Provenance{
				Slot:       t.slot,
				Origin:     originOf(u.mutated),
				Mutations:  names,
				GenerateNs: elapsed.Nanoseconds(),
			}
		}
		if !send(r.ctx, r.genCh, u) {
			return
		}
	}
}

// compile runs the pass pipeline. Every slot reports one covRec to the
// collector — its coverage profile (AST features plus the pass trace, or
// a crash/invalid edge) and any crash-family candidate, which the
// collector releases to dedup in canonical order. Clean compilations
// flow on to the oracle stage.
func (r *run) compile(w int) {
	e := r.e
	for u := range r.genCh {
		if u.skip {
			// Quarantined upstream: the slot's covRec still counts the
			// fold, with nothing to admit.
			if !send(r.ctx, r.covCh, covRec{slot: u.seed, baseID: -1}) {
				return
			}
			continue
		}
		var out Outcome
		var prof *coverage.Profile
		var astFP uint64
		elapsed, err, fault, cancelled := r.supervised(stageCompile, w, u.seed, func() error {
			out = e.oracle.Compile(u.prog)
			prof = u.prof
			if prof == nil {
				prof = coverage.OfProgram(u.prog)
			}
			astFP = prof.Fingerprint()
			switch {
			case out.Crash != nil:
				prof.AddPassCrash(out.Crash.Pass)
			case out.Invalid != nil:
				prof.AddPassInvalid(out.Invalid.Pass)
			case out.Err == nil:
				prof.AddTrace(out.Result.Trace)
			}
			return out.Err
		})
		if cancelled {
			return
		}
		if fault != nil {
			e.quarantine("compile", u.seed, originOf(u.mutated), u.prog, fault)
			if !send(r.ctx, r.covCh, covRec{slot: u.seed, baseID: -1}) {
				return
			}
			continue
		}
		if u.prov != nil {
			u.prov.CompileNs = elapsed.Nanoseconds()
		}
		if err != nil {
			// fn returns out.Err, so this only rewrites it when the
			// error was injected before compilation produced one.
			out.Err = err
		}
		f := classify(out)
		rec := covRec{
			slot: u.seed, prog: u.prog, prof: prof, astFP: astFP,
			baseID:   u.baseID,
			crashed:  f != nil,
			toOracle: out.Err == nil && f == nil,
		}
		if f != nil {
			rec.finding = r.candidate(u, f)
		}
		if !send(r.ctx, r.covCh, rec) {
			return
		}
		switch {
		case out.Err != nil:
			e.toolError(&e.compileErrors, u.seed, out.Err)
		case f != nil:
			// The candidate travelled with the covRec above.
		default:
			e.compiled.Add(1)
			u.res = out.Result
			if !send(r.ctx, r.compCh, u) {
				return
			}
		}
	}
}

// candidate completes classified finding f as unit u's candidate: it
// counts f by kind and fills in the fields every kind shares.
func (r *run) candidate(u unit, f *Finding) *Finding {
	r.e.found[f.Kind].Add(1)
	f.Seed, f.Backend, f.Origin = u.seed, r.e.cfg.Backend.String(), originOf(u.mutated)
	f.Program, f.Provenance = u.prog, u.prov
	return f
}

// inspect is the oracle stage: translation validation and packet tests.
// Every unit reports exactly one orRec — finding or not, quarantined or
// not — and the collector releases its candidate behind its round's
// crash-family candidates, in slot order.
func (r *run) inspect(w int) {
	e := r.e
	for u := range r.compCh {
		out := Outcome{Result: u.res}
		// Per-unit oracle copy (InspectLadder copies again for its
		// ladder rungs anyway), bound to the current epoch: the QueryObs
		// hook accumulates this unit's resolution-tier counts for
		// provenance. The tiers map is goroutine-private — queries run
		// sequentially inside one inspection — and is read only on the
		// success path, never after a fault abandons the closure.
		oc := e.epochOracle(e.oracle)
		var tiers map[string]uint64
		oc.QueryObs = func(tier string, d time.Duration) {
			if tiers == nil {
				tiers = make(map[string]uint64, 4)
			}
			tiers[tier]++
			if m := e.metrics; m != nil {
				m.observeQuery(tier, d)
			}
		}
		elapsed, err, fault, cancelled := r.supervised(stageOracle, w, u.seed, func() error {
			oc.InspectLadder(r.ctx, &out)
			return nil
		})
		if cancelled {
			return
		}
		var cand *Finding
		if fault != nil {
			// Do not touch out: an abandoned (stalled) invocation may
			// still be writing it. Quarantine on the unit's identity
			// alone.
			e.quarantine("oracle", u.seed, originOf(u.mutated), u.prog, fault)
			if !send(r.ctx, r.orCh, orRec{slot: u.seed, baseID: u.baseID}) {
				return
			}
			continue
		}
		if err != nil {
			out = Outcome{Result: u.res, Err: err}
		}
		if u.prov != nil {
			u.prov.OracleNs = elapsed.Nanoseconds()
			u.prov.QueryTiers = tiers
		}
		if out.Unknowns > 0 {
			e.unknownVerdicts.Add(uint64(out.Unknowns))
		}
		if out.Retried {
			e.oracleRetries.Add(1)
		}
		switch {
		case out.TimedOut:
			// The escalation ladder bottomed out: an explicit weakened
			// verdict, quarantined for offline triage.
			e.timeouts.Add(1)
			e.quarantineTimeout(u.seed, originOf(u.mutated), u.prog)
		case out.Err != nil:
			if r.ctx.Err() != nil {
				return
			}
			e.toolError(&e.oracleErrors, u.seed, out.Err)
		default:
			if cand = classify(out); cand == nil {
				e.clean.Add(1)
				break
			}
			r.candidate(u, cand)
			// The reduction predicate replays the symptom's evidence: a
			// miscompilation's counterexample, a mismatch's failing case.
			switch {
			case cand.Kind == FindingMiscompilation:
				cand.cex = out.Failures[0].Counterexample
			case len(out.MismatchCases) > 0:
				mc := out.MismatchCases[0]
				cand.replay = &mc
			}
		}
		if !send(r.ctx, r.orCh, orRec{slot: u.seed, baseID: u.baseID, finding: cand}) {
			return
		}
	}
}

// collector is the collect stage's state, owned by its one goroutine.
type collector struct {
	*run
	// cov holds the compile records by slot. bumps holds, by slot, the
	// corpus seed the slot's oracle finding bumps, -1 for none: a mutant
	// the compile stage forwarded gets its entry from its verdict, every
	// other slot a -1 from its compile record.
	cov   *inorder.Buffer[covRec]
	bumps *inorder.Buffer[int]
	// cands holds each slot's crash-family and oracle candidate (nil for
	// none) by position in the canonical release sequence (releasePos).
	cands *inorder.Buffer[*Finding]
	// live is false once a release found the run cancelled.
	live bool
	// lastCheckpoint is programsFolded at the last OnCheckpoint call.
	lastCheckpoint uint64
}

// collect folds coverage into the corpus and is the sole producer of
// finding candidates. It runs two in-order streams over the slots.
//
// The corpus fold: round r folds once the compile buffer has passed r's
// end and the bump buffer r-1's end. Round r-1's oracle findings on
// mutants, which surface after their own round has folded, bump their
// bases' energy; then round r's records are admitted; both in slot
// order. Only a mutant's verdict can bump, so a fresh slot, or one the
// compile stage did not forward, is a no-bump entry from the moment its
// compile record arrives: a slow verdict on a fresh program never holds
// a fold, nor with it the next round's schedule.
//
// The candidate release: round by round, the round's crash-family
// candidates, then its oracle candidates, each in slot order. A
// candidate goes to dedup as soon as every record before it in that
// sequence has arrived, whether or not its round has folded.
//
// Admission is order-sensitive (a program is admitted only if it still
// adds coverage), and which concrete program represents a deduplicated
// fingerprint decides the reduced witness bytes, so both streams must
// be a pure function of the schedule, never of worker interleaving.
func (r *run) collect() {
	defer close(r.collectorDone)
	defer close(r.candCh)
	c := &collector{
		run:   r,
		cov:   inorder.New[covRec](r.e.cfg.StartSeed),
		bumps: inorder.New[int](r.e.cfg.StartSeed),
		cands: inorder.New[*Finding](0),
		live:  true,
	}
	var recs []covRec // round k's compile records popped so far
	var bumps []int   // round k-1's bump entries popped so far
	k := int64(0)
	covIn, orIn := r.covCh, r.orCh
	for covIn != nil || orIn != nil {
		select {
		case rec, ok := <-covIn:
			if !ok {
				covIn = nil
				continue
			}
			c.cov.Put(rec.slot, rec)
			c.cands.Put(r.releasePos(rec.slot, false), rec.finding)
			if !rec.toOracle {
				c.cands.Put(r.releasePos(rec.slot, true), nil)
			}
			if !rec.toOracle || rec.baseID < 0 {
				c.bumps.Put(rec.slot, -1)
			}
		case rec, ok := <-orIn:
			if !ok {
				orIn = nil
				continue
			}
			c.cands.Put(r.releasePos(rec.slot, true), rec.finding)
			if rec.baseID >= 0 {
				bump := -1
				if rec.finding != nil {
					bump = rec.baseID
				}
				c.bumps.Put(rec.slot, bump)
			}
		}
		for r.roundEnd(k-1) < r.limit {
			var covDone, bumpsDone bool
			recs, covDone = popUntil(c.cov, r.roundEnd(k), recs)
			bumps, bumpsDone = popUntil(c.bumps, r.roundEnd(k-1), bumps)
			if !covDone || !bumpsDone {
				break
			}
			c.fold(bumps, recs)
			recs, bumps = recs[:0], bumps[:0]
			k++
		}
		for f, ok := c.cands.Pop(); ok; f, ok = c.cands.Pop() {
			c.release(f)
		}
	}
	// Every candidate whose predecessors all arrived has been released,
	// the last folded round's oracle candidates included; their energy
	// is dropped, since no later fold exists (a pure function of the
	// schedule). A record a cancelled stage never sent leaves a gap, and
	// the candidates behind it are dropped.
	//
	// Shutdown checkpoint: covCh is closed, so every fold that will
	// happen has happened and the watermark is final. Folded rounds whose
	// findings were still in flight stay lost (see OnCheckpoint).
	if r.e.cfg.OnCheckpoint != nil {
		if folded := r.e.programsFolded.Load(); folded > c.lastCheckpoint {
			r.e.cfg.OnCheckpoint(r.e.cfg.StartSeed + int64(folded))
		}
	}
}

// popUntil appends b's values below index end to dst, as far as they are
// present, and reports whether b's watermark has reached end.
func popUntil[T any](b *inorder.Buffer[T], end int64, dst []T) ([]T, bool) {
	for b.Next() < end {
		v, ok := b.Pop()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
	}
	return dst, true
}

// release hands one candidate to dedup.
func (c *collector) release(f *Finding) {
	if f == nil || !c.live {
		return
	}
	if !send(c.ctx, c.candCh, *f) {
		c.live = false // cancelled: stop releasing, keep folding
	}
}

// fold applies one round: the previous round's oracle-finding bumps,
// then this round's compile records, both in slot order.
func (c *collector) fold(bumps []int, recs []covRec) {
	e := c.e
	for _, id := range bumps {
		if id >= 0 {
			e.corpus.BumpEnergy(id, findingBump)
		}
	}
	for _, rc := range recs {
		if rc.prof == nil {
			// Quarantined or errored before profiling: the record exists
			// only to count the fold.
			continue
		}
		e.corpus.RecordProgram(rc.astFP)
		admitted := e.corpus.Add(rc.prog, rc.prof)
		// Dynamic energy: reward the mutation base whose mutant earned
		// admission or found a compile-stage bug.
		if rc.baseID >= 0 {
			bump := 0.0
			if admitted {
				bump += admissionBump
			}
			if rc.crashed {
				bump += findingBump
			}
			e.corpus.BumpEnergy(rc.baseID, bump)
		}
	}
	e.programsFolded.Add(uint64(len(recs)))
	// Liveness heartbeat: wall-clock only, feeds Health, never a
	// scheduling decision.
	e.lastFoldNano.Store(time.Now().UnixNano())
	// Epoch rotation shares the admission fold's determinism: it fires at
	// the first fold boundary at or past EpochPrograms, a pure function
	// of the schedule.
	if e.cfg.EpochPrograms > 0 {
		ep := e.epoch.Load()
		if e.programsFolded.Load()-ep.startPrograms >= uint64(e.cfg.EpochPrograms) {
			e.rotateEpoch()
		}
	}
	// Checkpoints fire only here, from the sole corpus-mutating
	// goroutine, at a fold boundary: the snapshot is a consistent
	// (corpus, watermark) pair — every slot below the watermark folded,
	// none above it.
	if e.cfg.OnCheckpoint != nil {
		folded := e.programsFolded.Load()
		fire := e.checkpointReq.Swap(false)
		if e.cfg.CheckpointPrograms > 0 &&
			folded-c.lastCheckpoint >= uint64(e.cfg.CheckpointPrograms) {
			fire = true
		}
		if fire {
			c.lastCheckpoint = folded
			e.cfg.OnCheckpoint(e.cfg.StartSeed + int64(folded))
		}
	}
	if e.cfg.MutateRatio > 0 {
		select {
		case c.foldCh <- struct{}{}:
		default:
		}
	}
}

// dedup fingerprints candidates. Crash-family findings have stable
// fingerprints before reduction, so duplicates are dropped here and never
// reach the (expensive) reducer. Semantic findings are fingerprinted by
// their *reduced* witness, so they dedup in the report stage instead —
// capped per (kind, pass) so one hot defect firing on most seeds cannot
// turn the pipeline into a reducer farm. Candidates arrive from the
// collector in canonical (round, slot) order, so the program that wins
// each fingerprint — the one that gets reduced and printed — is
// deterministic; each survivor is stamped with its position so the
// report stage can re-sequence findings after parallel reduction
// scrambles completion order.
func (r *run) dedup() {
	defer close(r.redCh)
	e := r.e
	seen := map[uint64]bool{}
	for _, fp := range e.cfg.KnownFindings {
		// Resume path: crash-family findings an earlier incarnation
		// already reported dedup here, before the reducer.
		seen[fp] = true
	}
	perPass := map[string]int{}
	order := int64(0)
	for f := range r.candCh {
		var dedupStart time.Time
		if e.metrics != nil {
			dedupStart = time.Now()
		}
		dup := false
		if f.Kind == FindingCrash || f.Kind == FindingInvalidTransform {
			f.Fingerprint = crashFingerprint(f.Kind, f.Pass, f.crashMsg)
			if seen[f.Fingerprint] {
				dup = true
			} else {
				seen[f.Fingerprint] = true
			}
		} else {
			key := fmt.Sprintf("%d\x00%s", f.Kind, f.Pass)
			if perPass[key] >= e.cfg.MaxReducePerPass {
				dup = true
			} else {
				perPass[key]++
			}
		}
		if m := e.metrics; m != nil {
			// Classification only; the (blocking) handoff to the reducer
			// is backpressure, not dedup latency.
			m.stageDur[stageDedup].Observe(time.Since(dedupStart))
		}
		if dup {
			e.duplicates.Add(1)
			continue
		}
		f.order = order
		order++
		if !send(r.ctx, r.redCh, f) {
			return
		}
	}
}

// reduce shrinks each unique finding with a predicate that re-runs the
// oracle on every candidate.
func (r *run) reduce(w int) {
	e := r.e
	for f := range r.redCh {
		var got Finding
		_, err, fault, cancelled := r.supervised(stageReduce, w, f.Seed, func() error {
			got = e.reduceFinding(r.ctx, f)
			return nil
		})
		if cancelled {
			return
		}
		out := f
		if err == nil && fault == nil {
			out = got
		} else {
			// The finding is real — only its shrink failed. Emit the
			// unreduced witness (ReduceContext never mutates its input, so
			// f.Program is intact even after an abandoned stall) and
			// quarantine the fault.
			if fault != nil {
				e.quarantine("reduce", f.Seed, f.Origin, f.Program, fault)
			} else {
				e.toolError(&e.oracleErrors, f.Seed, err)
			}
			if f.Program != nil {
				out.SizeBefore = reduce.Size(f.Program)
				out.SizeAfter = out.SizeBefore
			}
		}
		if !send(r.ctx, r.outCh, out) {
			return
		}
	}
}

// report computes final fingerprints (semantic findings key on the
// reduced witness), applies the final dedup and streams each unique
// finding to OnFinding. Reduced findings complete in whatever order their
// reductions finish; re-sequencing by the dedup stamp makes the final
// dedup — and the report/journal order — deterministic again. The buffer
// holds at most the findings in flight through the reducer pool; a
// cancelled reducer leaves a gap, and the findings past it are dropped —
// the run is aborting anyway.
func (r *run) report() []Finding {
	e := r.e
	var findings []Finding
	seen := map[uint64]bool{}
	for _, fp := range e.cfg.KnownFindings {
		// Resume path: a finding journaled before the crash is a
		// duplicate here, so a resumed daemon never re-reports it.
		seen[fp] = true
	}
	buf := inorder.New[Finding](0)
	for f := range r.outCh {
		buf.Put(f.order, f)
		for g, ok := buf.Pop(); ok; g, ok = buf.Pop() {
			if g.Kind == FindingMiscompilation || g.Kind == FindingMismatch {
				g.Fingerprint = semanticFingerprint(g.Kind, g.Pass, g.Program)
			}
			if seen[g.Fingerprint] {
				e.duplicates.Add(1)
				continue
			}
			seen[g.Fingerprint] = true
			e.unique.Add(1)
			if g.Program != nil {
				g.Source = printer.Print(g.Program)
			}
			if e.cfg.OnFinding != nil {
				e.cfg.OnFinding(g)
			}
			findings = append(findings, g)
		}
	}
	return findings
}

// send delivers v unless the context is cancelled first.
func send[T any](ctx context.Context, ch chan<- T, v T) bool {
	select {
	case ch <- v:
		return true
	case <-ctx.Done():
		return false
	}
}

// toolError counts one tool limitation on its stage's counter
// (compileErrors or oracleErrors) and reports it to OnOracleError.
func (e *Engine) toolError(stage *atomic.Uint64, seed int64, err error) {
	stage.Add(1)
	if e.cfg.OnOracleError != nil {
		e.cfg.OnOracleError(seed, err)
	}
}

// reduceFinding shrinks a finding's witness while the oracle keeps
// reproducing the same symptom. Candidates are probed speculatively on
// the shared reduction gate (ReduceOpts.Parallelism wide per finding,
// Workers wide in total); the committed trajectory and the reduced
// witness are byte-identical to a serial reduction.
func (e *Engine) reduceFinding(ctx context.Context, f Finding) Finding {
	if f.Program == nil {
		return f
	}
	f.SizeBefore = reduce.Size(f.Program)
	f.SizeAfter = f.SizeBefore
	if !e.cfg.Reduce {
		return f
	}
	opts := e.cfg.ReduceOpts
	opts.Gate = e.reduceGate
	reduceStart := time.Now()
	prog, rs := reduce.ReduceStats(ctx, f.Program, e.keepPredicate(f), opts)
	e.reduceSerial.Add(uint64(rs.SerialCalls))
	e.probesLaunched.Add(uint64(rs.Launched))
	e.probesWasted.Add(uint64(rs.Wasted))
	f.Program = prog
	f.SizeAfter = reduce.Size(f.Program)
	if f.Provenance != nil {
		// Clone before writing: the fault path emits the pre-reduce
		// finding, which shares the incoming pointer — and an abandoned
		// (stalled) invocation of this function may still be executing
		// here, so it must never write through shared state.
		p := *f.Provenance
		p.ReduceNs = time.Since(reduceStart).Nanoseconds()
		p.ReduceSerialCalls = rs.SerialCalls
		p.ReduceProbesLaunched = rs.Launched
		p.ReduceProbesWasted = rs.Wasted
		f.Provenance = &p
	}
	return f
}

// keepPredicate builds the reduction invariant for a finding: the oracle,
// re-run on the candidate, must reproduce the same symptom (same crashing
// pass and message, same failing pass, or any packet mismatch).
//
// Crash-family findings take a fast path: reproducing a crash or an
// invalid transform needs only the compile step (the symptom fires in a
// pass, before validation or packet testing could even run), so their
// predicates skip translation validation and packet testgen entirely —
// far more candidates fit under the same MaxPredicateCalls budget.
//
// Predicates receive the probe's context: it is cancelled when the
// candidate's verdict can no longer matter (an earlier candidate in the
// window committed, or the reduction was cancelled), so solver-backed
// probes abandon dead speculative work early. They may run concurrently
// — the oracle, its caches and the counters are all concurrency-safe.
func (e *Engine) keepPredicate(f Finding) reduce.PredicateCtx {
	o := e.oracle
	if m := e.metrics; m != nil {
		// Reduction-phase equivalence queries feed the per-tier latency
		// histograms too (metrics only — the finding's provenance tier
		// counts cover its oracle-stage inspection).
		oc := *e.oracle
		oc.QueryObs = m.observeQuery
		o = &oc
	}
	switch f.Kind {
	case FindingCrash, FindingInvalidTransform:
		// Pin kind, pass and full message: the fingerprint and Detail
		// carry them, so a candidate that makes the same pass fail
		// differently is a different symptom, not a smaller witness of
		// this one.
		return func(_ context.Context, cand *ast.Program) bool {
			e.reduceCalls.Add(1)
			g := classify(o.Compile(cand))
			return g != nil && g.Kind == f.Kind && g.Pass == f.Pass && g.crashMsg == f.crashMsg
		}
	}
	if f.Kind == FindingMiscompilation {
		// Replay the finding's counterexample as a concolic hint: the
		// candidate's miter tape evaluates it in one packet, so candidates
		// that still fail on the original distinguishing input (most of
		// them) re-prove the inequivalence with zero solver work. A miss
		// falls through to the normal batch-falsify → solver ladder inside
		// the same Examine call. The probe context only ever cancels
		// discarded speculation, so the committed trajectory never sees a
		// cancelled predicate and stays budget-bounded as before.
		ho := o.WithHints(f.cex)
		return func(pctx context.Context, cand *ast.Program) bool {
			e.reduceCalls.Add(1)
			out := e.epochOracle(ho).Examine(pctx, cand)
			for _, v := range out.Failures {
				if v.PassB == f.Pass {
					return true
				}
			}
			return false
		}
	}
	return func(pctx context.Context, cand *ast.Program) bool {
		e.reduceCalls.Add(1)
		bo := e.epochOracle(o)
		// Replay the cached failing case first: one compile plus one
		// concrete injection decides most candidates, versus a full
		// symbolic test-generation session. Replay runs regardless of
		// ConcolicOff — it involves no tape or solver shortcut, just a
		// remembered input — so the reduction trajectory is identical with
		// the fast path on or off.
		if f.replay != nil {
			if hit, err := bo.ReplayMismatch(cand, *f.replay); err == nil && hit {
				e.mismatchReplays.Add(1)
				return true
			}
		}
		out := bo.Examine(pctx, cand)
		return len(out.Mismatches) > 0
	}
}

// crashFingerprint hashes (kind, pass, message) — stable across witnesses,
// so every seed that trips the same assertion collapses to one finding.
func crashFingerprint(kind FindingKind, pass, msg string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s", kind, pass, msg)
	return h.Sum64()
}

// semanticFingerprint hashes (kind, failing pass, reduced witness): after
// reduction, seeds that trigger the same defect through equivalent minimal
// programs collapse to one finding. The witness fingerprint is computed
// over the printed program with identifiers alpha-renamed by first
// occurrence — generator-fresh names (h_17 vs h_23) must not keep two
// structurally identical minimal witnesses apart.
func semanticFingerprint(kind FindingKind, pass string, prog *ast.Program) uint64 {
	h := fnv.New64a()
	var pf uint64
	if prog != nil {
		pf = canonicalFingerprint(prog)
	}
	fmt.Fprintf(h, "%d\x00%s\x00%016x", kind, pass, pf)
	return h.Sum64()
}

// canonicalFingerprint hashes a program's token stream with every
// identifier replaced by its first-occurrence index.
func canonicalFingerprint(prog *ast.Program) uint64 {
	src := printer.Print(prog)
	toks, errs := lexer.ScanAll(src)
	h := fnv.New64a()
	if len(errs) > 0 {
		h.Write([]byte(src))
		return h.Sum64()
	}
	names := map[string]int{}
	for _, t := range toks {
		if t.Kind == token.IDENT {
			id, ok := names[t.Lit]
			if !ok {
				id = len(names)
				names[t.Lit] = id
			}
			fmt.Fprintf(h, "@%d\x00", id)
			continue
		}
		fmt.Fprintf(h, "%d:%s\x00", t.Kind, t.Lit)
	}
	return h.Sum64()
}
