// Package gauntlet reproduces "Gauntlet: Finding Bugs in Compilers for
// Programmable Packet Processing" (Ruffy, Wang, Sivaraman — OSDI 2020) as
// a self-contained Go library: a P4₁₆-subset toolchain (parser, type
// checker, nanopass compiler, interpreter), a QF_BV SMT solver, the
// paper's three bug-finding techniques (random program generation,
// translation validation, symbolic-execution test generation), two target
// simulators (BMv2 and a black-box Tofino stand-in), a seeded-defect
// registry reproducing the paper's 78-bug evaluation, an automatic
// test-case reducer, and a streaming fuzzing engine that runs all of it
// as the continuous-integration service the paper proposes (§7.1).
//
// See ROADMAP.md for the design, the measured results and the open work,
// bench/README.md for the pinned campaign workloads behind every speed
// claim, and CHANGES.md for what each change did. The benchmark harness in
// bench_test.go regenerates every table and figure:
//
//	go test -bench=. -benchmem .
//
// # Engine architecture
//
// internal/core hosts the bug-finding orchestration in three layers:
//
//   - core.Oracle is the single detection stage: compile a program
//     through a pass pipeline, then interrogate the result with
//     translation validation (§5) and symbolic-execution packet tests
//     (§6). Campaign.Hunt (the Table 2 evaluation), Campaign.HuntClean
//     (the no-false-alarm baseline) and the engine all call this one
//     implementation, and read its Outcome through one classifier that
//     names a finding's kind, pass and Detail. The command-line tools
//     reach it the same way: p4reduce is a one-slot engine run, so it
//     pins the engine's symptom and uses its reducer; p4test and
//     p4interp compile with core.Pipeline's reference pipeline; and
//     p4interp, the oracle and the test generator's tests inject test
//     packets through one loop, device.Run. There is no second copy of
//     the compile/validate/testgen/packet-test logic.
//   - core.Engine is the streaming, stage-parallel fuzz pipeline:
//     generate → compile → oracle → fingerprint/dedup → auto-reduce →
//     report, connected by bounded channels with a worker pool per heavy
//     stage. context.Context cancellation is plumbed through every stage
//     and into validate, testgen and reduce; Engine.Stats() is a
//     lock-cheap atomic snapshot (throughput, per-stage counters, cache
//     hit rates, interner growth) safe to poll while the engine runs.
//   - Findings are deduplicated by stable fingerprint — crash and
//     invalid-transform findings hash (pass, message); miscompilations
//     and packet mismatches hash (failing pass, alpha-renamed reduced
//     witness) — and every unique finding is shrunk by internal/reduce
//     with a predicate that re-runs the oracle, automating the manual
//     reduction §8 calls a limitation. Reduction is speculative and
//     parallel (reduce.Options.Parallelism, the worker count by default):
//     a window of delta-debugging candidates is probed concurrently but
//     results are consumed strictly in enumeration order and the first
//     success commits, so the reduced witness is byte-identical to
//     serial ddmin at any window width — speculation buys wall-clock,
//     never a different answer. Candidate findings themselves are
//     released to dedup in one canonical sequence: round by round, the
//     round's crash-family candidates, then its oracle candidates, each
//     in slot order. Each goes out as soon as every record before it in
//     that sequence has arrived, so which concrete program represents a
//     fingerprint — and hence the witness bytes — is independent of
//     worker interleaving too.
//   - Every merge point where out-of-order completions must be consumed
//     in canonical order goes through one in-order release buffer,
//     internal/inorder: the collector's per-slot compile records and
//     energy bumps, its candidate release sequence, the report stage's
//     re-sequencing of reduced findings, and the fleet coordinator's
//     lease results.
//
// The concurrency discipline is "isolate first, then share": each worker
// owns its compiler instance and solver sessions outright, and the only
// cross-worker state is immutable or append-only — the hash-consed term
// interner and the validation cache. That is what makes the unique-finding
// set independent of the worker count (engine determinism is tested) and
// lets throughput scale with cores.
//
// To add a new oracle check, extend core.Oracle.Inspect (and Outcome with
// a new finding family); every consumer — campaign, engine, reducer
// predicates — picks it up at once. To fuzz a new backend, give the
// generator a skeleton (generator.Backend, named in
// generator.ParseBackend) and map it to a platform in core.PlatformOf;
// core.Pipeline builds each platform's reference pass pipeline, and the
// -backend flag in cmd/p4gauntlet selects between them.
//
// Every campaign front end shares that pipeline and one configuration
// path. p4gauntlet -defects (fuzz, serve and coordinator modes), the
// fleet worker and p4reduce -bug instrument seeded registry defects into
// the reference pipeline via core.Pipeline, which refuses a defect whose
// pass that pipeline does not run (a Tofino defect on v1model, say)
// instead of silently instrumenting nothing. Campaign settings become a
// core.EngineConfig in one place, fleet.RunConfig.EngineConfig: every
// fleet lease starts from it, and so do fuzz and serve runs, which add
// only what a single process has (mutation, epochs, a loaded or resumed
// corpus, callbacks).
//
// # Corpus architecture
//
// Blind grammar fuzzing draws every program fresh; nothing learned from
// one program informs the next, so a long campaign keeps re-exploring the
// same shallow pass behaviours. Three packages close that loop with
// coverage feedback:
//
//   - internal/coverage computes a cheap, deterministic coverage signal
//     per program: an AST feature profile (node/operator/width usage,
//     declaration and table/parser shapes, expression-depth buckets, all
//     counts log-bucketed) plus the compiler's pass trace
//     (compiler.Result.Trace — which passes rewrote the program and by
//     how much, with crash/invalid edges for abnormal terminations),
//     folded into a set of uint64 edges with a stable Fingerprint.
//   - internal/corpus is the concurrency-safe seed pool: a program is
//     admitted only if its profile contributes an unseen edge; admitted
//     seeds carry an energy (new edges over sqrt(size)) that biases
//     selection toward small, coverage-rich programs; eviction is
//     size-biased and never re-opens claimed coverage. Seeds save/load
//     as printed P4 (-corpus DIR), so a campaign's corpus persists.
//   - internal/mutate perturbs input programs — the dual of
//     bugs.Mutators, which corrupts pass output: statement
//     duplicate/swap/splice within declaration-free segments, closed-
//     expression grafting between seeds, constant and width tweaks,
//     if→switch rewrites, table-action insertion, parser-state insertion.
//     Every mutator is deterministic under a supplied rand stream and
//     validity-preserving by construction where the site permits; the
//     rest are rejected by the type checker before reaching the oracle.
//
// core.Engine's generate stage is a scheduler over these: each slot
// either generates fresh (from the slot seed) or mutates corpus seeds
// (under the master EngineConfig.Seed stream), at EngineConfig
// .MutateRatio. Mutants additionally pass a novelty pre-filter — a
// mutant whose AST profile has already been observed is discarded rather
// than spending an oracle slot re-proving a known verdict; exhausted
// slots fall back to fresh generation.
//
// Determinism survives the feedback loop by construction: coverage
// results fold into the corpus in canonical slot order at fixed round
// boundaries (EngineConfig.SyncInterval), and a round's mutation
// decisions draw only on the corpus as of the previous fold. Fold r
// waits for round r's compile records and for the verdicts of round
// r-1's mutants, the only verdicts whose findings bump energy; a slow
// verdict on a fresh program holds back only the release of later
// candidates, never the schedule. The
// schedule is therefore a pure function of the configuration — the
// unique-finding set and the final corpus coverage-fingerprint set are
// identical for any worker count, and a fixed -seed replays an entire
// p4gauntlet fuzz run, mutation schedule included (both tested, race-
// enabled).
//
// # Performance architecture
//
// A bug-hunting campaign is thousands of solver queries over
// near-identical circuits, so the solver stack is built around making
// most queries never reach CDCL search at all — and making the rest
// cheap:
//
//   - Hash-consing. Every smt.Term is interned by its smart constructor
//     (internal/smt/intern.go): structurally equal terms are
//     pointer-equal within their smt.Context, carry process-unique IDs,
//     and hash in O(1). The constructor folds that rely on pointer
//     equality (Eq(x,x) → true, Ite collapse) therefore fire across
//     independently built formulas — re-symbolizing an unchanged block
//     yields the identical term objects, and a no-op pass transition's
//     equivalence check folds away at construction. smt.InternerStats()
//     reports entries, a bytes estimate and shard occupancy; the engine
//     surfaces the current epoch's snapshot so interner growth is
//     observable in long-running service mode.
//   - Word-level simplification. smt.Simplify (internal/smt/simplify.go)
//     canonicalizes terms through a memoized bottom-up rewriter (sharded
//     cache keyed by interned ID): commutative operands sort by a
//     run-stable structural rank, And/Or flatten and detect complements,
//     Not pushes to the leaves, equalities decompose through concat/zext
//     and cancel shared operands, extracts fuse through
//     concat/zext/bitwise plumbing, and constant shifts become wiring.
//     Every rule is model-preserving (differentially fuzzed against
//     smt.Eval and the raw blaster). sym.Equivalent returns the
//     simplified miter, so translation validation's near-identical
//     comparisons usually collapse to a constant before any solver
//     exists, and validate.Cache keys verdicts on the canonical
//     (simplified) term ID so syntactic variants share one verdict.
//     solver.Session simplifies at its Assert/Lit/BVLits boundary, so
//     test generation and every Solve caller inherit the layer.
//   - Structurally-hashed bit-blasting. Below the term level,
//     solver.Blaster builds negation-normalized two-input AND/XOR/MUX
//     gates through a structural cache: commuted inputs, flipped
//     polarities and De Morgan duals of an existing gate return its
//     literal instead of fresh variables and clauses, so structure
//     repeated across a miter's two sides collapses inside the CNF too.
//     The barrel shifter folds all "distance ≥ width" stages into one
//     amount-overflow OR plus a single AND mask per bit.
//     solver.GateStats() reports built/reused counters, surfaced with the
//     simplification stats in engine Stats() and the p4gauntlet -jsonl
//     run record.
//   - Concolic falsification. Before any solver runs on a fresh
//     equivalence query, the simplified miter is compiled once into a
//     flat topo-ordered instruction tape (smt.CompileTape) and executed
//     bit-parallel — 64 deterministic pseudo-random packets per machine
//     word, inputs derived purely from (seed, miter structure) — so an
//     inequivalent miter usually refutes itself concretely
//     (smt.Tape.Falsify) and the Sat verdict plus witness costs zero
//     solver work; only unfalsified queries fall through to CDCL
//     (solver.EquivalentConcolic). The same tape replays a remembered
//     counterexample in one packet: reduction predicates thread the
//     original finding's witness through validate.Concolic.Hints
//     (miscompilations) or re-inject the cached mismatch case
//     (core.Oracle.ReplayMismatch), so most reduction candidates are
//     decided for the price of a compile. Concrete root traces also
//     steer testgen's path enumeration toward the rarer branch polarity
//     (minority-first) instead of enumerating blindly. The whole layer
//     is an optimization, never a verdict change: findings are
//     byte-identical with it on or off (EngineConfig.ConcolicOff,
//     tested), hint-derived verdicts are never cached (which hint a
//     caller holds is history, not miter structure), and cached
//     witnesses are pure functions of (seed, structure, rounds).
//   - Incremental solving. The SAT core supports solve-under-assumptions
//     (solver.Session): a formula is bit-blasted once and each branch
//     polarity or soft model preference is decided as an assumption on
//     the same instance, with learnt clauses, activities and phases
//     carried across queries. Path enumeration and the §6.2 preference
//     steering cost one incremental query per decision instead of a full
//     re-blast. (Equivalence queries deliberately stay one-shot: their
//     circuits overlap too little for session reuse to pay.) A
//     feasibility probe calls Session.Check, which returns the verdict
//     without building a model, and SolveAssumingSoft runs all its trials
//     in one assumption buffer.
//   - A same-trajectory CDCL core. Test packets are SAT models, so the
//     search itself is fixed: every decision, propagation, learnt
//     clause, conflict count and model equals that of a verbatim copy of
//     the original solver, checked after every call by the solver's
//     trajectory tests, and only the cost of a step may change. Decisions
//     follow a sorted order with a cursor until an activity changes, then
//     a heap. Every clause lives in one flat arena of literal codes that
//     watch lists and reasons address by offset, and values are indexed
//     by literal code, so a watch visit reads the clause's words with one
//     dependent load and a literal's value with one more. analyze learns
//     into a reused buffer, so a conflict allocates only when the arena
//     grows. Session.Close resets its blaster and SAT and hands them to
//     a sync.Pool that NewSession draws from: the maps are cleared and
//     every array is truncated to length 0, so a recycled SAT is the zero
//     solver on grown storage, and the trajectory tests run every script
//     on one. BenchmarkEquivalenceQueryBudgeted (internal/smt/solver)
//     times the one equivalence query that exhausts the default budget
//     at the end of bench/'s tv-campaign.
//   - A streaming parser. Compile re-parses the program every rewriting
//     pass emits (§5.2). parser.Parse pulls tokens from the lexer
//     through a four-slot lookahead ring instead of scanning the whole
//     source into a token slice first; after a syntax error it scans the
//     rest of the source, so a lexical error anywhere still wins, as it
//     did when scanning came first.
//   - Validation caching. validate.Cache memoizes block formulas (keyed
//     by printed source) and equivalence verdicts (keyed by simplified
//     term ID); core.Campaign and core.Engine share one cache across all
//     hunts, workers and reduction predicates — reduction candidates are
//     near-copies of their original, so the reducer runs mostly on
//     simplification collapses and cache hits. Cache.Snapshot() counts
//     the queries resolved with no solver call (SimpResolved).
//
// # Memory lifecycle
//
// Everything the solver stack accumulates while building and rewriting
// terms — the hash-consing interner, the simplification/canonical-rank
// memo, the validation block-formula and verdict caches — belongs to
// exactly one scope: an smt.Context and the validate.Cache bound to it.
// Construction is context-routed from the leaves up (leaf constructors
// are Context methods; composite constructors infer the context from
// their arguments; foreign constant/variable leaves are adopted, foreign
// composites panic), so a formula built from context-owned leaves lives
// entirely in that context without threading a handle through every call
// site. The package-level constructors and smt.True/False remain as the
// process-default context for tests, examples and core.Campaign, never
// for an engine.
//
// core.Engine owns one private context per epoch, from its first epoch
// on, so an engine's terms die with it (a fleet lease's with the lease).
// Long-running deployments bound memory by epoch-based reclamation
// (EpochPrograms > 0, the p4gauntlet serve mode): the engine rotates its
// context at a SyncInterval-aligned round boundary — the same
// deterministic fold point the corpus admissions use — installing a fresh
// smt.Context + validate.Cache pair. Each oracle call binds the current
// pair once, on its own copy of the oracle (Oracle.Cache), so in-flight
// calls finish on the pair they started with, and the retired generation
// — terms, simplify memo, verdicts, block formulas — becomes garbage when
// the last of them drains. Nothing is evicted term-by-term and nothing is
// shared across epochs except the corpus (plain ASTs: its live seed
// programs re-intern their block formulas lazily on first touch in the
// new context) and the counters (the epochs' caches count into one block,
// and the SAT gate counters are process-global; both are reported as
// per-epoch deltas).
// Because caches only ever change cost, never verdicts, the finding set
// for a fixed seed budget is identical across worker counts and epoch
// sizes (tested, race-enabled); per-epoch context bytes plateau instead
// of growing for the process lifetime (TestServeEpochMemoryPlateau).
//
// # Robustness
//
// The serve deployment treats a fuzzing campaign as state that must
// survive its own process. Three layers:
//
// Watchdogs and graceful degradation. MaxConflicts bounds solver
// conflicts, not wall-clock — one pathological miter can wedge a worker
// inside a single budget — so Oracle.Timeout threads a deadline down
// into the SAT inner loop (solver.SAT.Stop, polled beside the conflict
// budget), where expiry degrades the running query to Unknown. The
// oracle applies an escalation ladder per program: full-budget attempt →
// one retry at doubled wall-clock and conflict budgets → an explicit
// TimedOut outcome (Outcome.TimedOut, Stats.Timeouts), never a silent
// miss and never a stuck worker. Budget-starved Unknown verdicts are
// never cached: a later, larger-budget query on the same miter must
// reach the solver. Cancellation returns partial results everywhere —
// validate.SnapshotsContext and testgen.GenerateContext hand back
// verdicts/cases gathered so far along with ctx.Err().
//
// Panic isolation and quarantine. Every engine stage body runs under a
// supervisor (internal/core): a panic is recovered, a body exceeding
// EngineConfig.StageTimeout is abandoned (the goroutine unwinds on
// context at drain), and either way the program — not the process — is
// quarantined: a QuarantineRecord (stage, seed, kind, symptom, witness
// source) flows to OnQuarantine and, under serve, to DIR/quarantine/ on
// disk. Quarantined slots still count toward the round-fold barrier, so
// corpus admission order and scheduling replay stay deterministic. The
// proof harness is internal/faultinject: a pure (seed, stage, slot) →
// fault decision that injects panics, stalls and errors determinstically,
// with race-enabled chaos tests asserting zero deaths, exact quarantine
// accounting, and that the finding set over non-faulted programs is
// unchanged by injection.
//
// Durable state (internal/persist). The journal (DIR/journal.jsonl) is
// append-only JSONL, one fsync per finding, written before the finding
// is streamed anywhere. A torn final line (the crash signature: a line
// without its newline) is dropped when the journal is opened, so the
// next record starts on a line of its own; replay tolerates one but
// fails on interior corruption. Checkpoints
// (DIR/checkpoint.json) are written atomically (temp file, fsync,
// rename, fsync dir) from the collector at fold boundaries: a consistent
// (corpus snapshot, NextSlot watermark, cumulative totals) triple, where
// corpus.Snapshot preserves the exact feedback state (global edge set,
// energies, fingerprints, counters). `p4gauntlet -mode serve -resume
// DIR` restores the corpus and watermark, pre-seeds deduplication from
// the journal's fingerprints, and reprocesses the slots between the
// watermark and the death — at-least-once, with zero re-reported
// findings. The watermark counts folded slots, not reported ones: a
// checkpoint at fold r may precede the reporting of round r's crash
// findings and its oracle findings, and even the verdicts of fresh
// slots in earlier rounds, since a fold waits only for mutants'
// verdicts. A kill right after it loses those findings rather than
// replaying them.
// SIGHUP forces a checkpoint + stats flush without draining
// (and logs a one-line human summary to stderr);
// scripts/crash_resume_smoke.sh drives the whole loop (inject, SIGKILL,
// resume) in CI.
//
// # Fleet scale
//
// internal/fleet shards one campaign across processes — one box or many
// — without changing what it computes. A coordinator slices the master
// seed stream into leases aligned to the engine's SyncInterval; workers
// (p4gauntlet -mode worker -connect ADDR) run one bounded core.Engine
// per lease with MutateRatio 0, so every lease is a pure function of
// its seeds; and the coordinator (p4gauntlet -mode coordinator -listen
// ADDR, -fleet N to fork a local fleet) completes leases
// first-result-wins but releases them only behind a contiguous-prefix
// watermark, re-deduplicating findings by their stable fingerprints in
// canonical order. A lease result is its lease ID, its findings and its
// counters: no lease reads a corpus, so each lease engine's corpus dies
// with it and the coordinator keeps none. The consequence, race-tested
// and smoke-tested at the real process boundary: finding set, witness
// bytes and report order are byte-identical to a single process at any
// worker count. The protocol is a minimal length-prefixed JSON stream
// (stdlib only); workers receive all campaign configuration over the
// wire. Worker loss — connection drop, hang past the lease timeout,
// kill -9 — returns the lease to pending for re-issue; the coordinator
// owns the single persist journal/checkpoint, and -resume restores the
// watermark, the totals and journal-seeded dedup so even a coordinator
// kill -9 re-reports nothing. faultinject.LinkPlan extends deterministic fault injection
// to the fleet link (pure (seed, lease) → drop/delay/sever), driving
// the chaos tests and the fleet_smoke.sh CI job.
//
// # Observability
//
// The introspection plane (internal/obs) makes a live daemon — or a
// finished finding — explain itself without perturbing it. Three pieces:
//
// Metrics. A dependency-free registry of counters, gauges and
// log2-bucketed latency histograms, all named gauntlet_* (counters end
// in _total; histograms are _seconds with cumulative le buckets).
// Hot-path instruments are sharded per worker and merged only on
// scrape; because a histogram's bucket is a pure function of the
// observed duration and shard merging is element-wise addition
// (associative and commutative), the merged view of a given event
// stream is identical at any worker count. The engine times every heavy
// stage (gauntlet_stage_duration_seconds{stage=generate|compile|oracle|
// dedup|reduce}) and every equivalence query by the solver-stack tier
// that resolved it (gauntlet_equivalence_query_duration_seconds{tier=
// simplified|cache-hit|hint-replay|concolic-falsified|cdcl}); a
// collector renders the cumulative core.Stats counters on each scrape.
//
// Provenance. Every reported finding carries a lineage trace
// (core.Provenance, serialized as the additive "provenance" JSON field
// in JSONL reports and the durable journal — old journals replay
// unchanged with a nil trace): schedule slot, origin
// (generate vs mutate) with the applied mutation stack, per-stage
// wall-clock (generate/compile/oracle/reduce ns), reduction effort
// (serial-equivalent calls, probes launched and wasted) and per-tier
// equivalence-query counts. Schedule fields are pure functions of the
// run configuration; wall-clock fields are observation-only.
//
// Admin endpoint. `p4gauntlet -http ADDR` (fuzz and serve) serves
// /metrics (Prometheus text exposition 0.0.4, deterministic ordering),
// /statusz (one JSON document: stats with corpus summary, health,
// recent epoch retirements and quarantines), /healthz (200 "ok" while
// round folds progress, 503 with the stall age once progress stops) and
// /debug/pprof/* on a private mux. The listener binds eagerly (bad
// address fails at startup) and drains gracefully after the final
// stats record. JSONL records that fail to serialize or write are
// counted (Stats.RecordsDropped, gauntlet_records_dropped_total,
// /statusz) as well as logged.
//
// The invariance contract, race-tested in internal/core: installing the
// registry changes cost only — finding set, witness bytes, report order
// and corpus are byte-identical with obs on and off at any worker
// count. One observable checks the whole contract: TestInvarianceMatrix
// compares it (findings in report order with every field
// but wall-clock provenance and counterexample values, witness hashes,
// corpus fingerprints and stats, schedule-only counters) across rows
// that toggle workers, mutation, epoch rotation, the concolic tier, the
// registry, reduction width and the fleet executor, plus a capped, a
// black-box TNA and a fault-injected campaign with references of their
// own. TestEngineDeterminism, TestEngineMutationDeterminism,
// TestEngineEpochDeterminism and TestObsInvariance vary one toggle each
// over the same observable, so a failing row can be traced to a toggle.
// The registry's cost is measured with bench/ab.sh on the pinned workloads.
// Negative: nothing in obs makes scheduling decisions — health is keyed
// off fold progress but only reports it, and provenance timings never
// feed back into the engine.
//
// # Benchmarks
//
// Speed has one measure: bench/ab.sh, alternating runs of the parent and
// the change on the pinned campaign workloads in bench/, each run
// checked against its pinned findings digest (bench/README.md, "Reading
// an A/B"). Each workload runs different layers hard, so the cost of
// one layer (the robustness layer, the metrics registry, the fleet
// coordinator, speculative reduction, the concolic tape, corpus
// mutation) is read on the workload that runs it, not from two arms of
// one in-process benchmark. What such a layer must not change — the
// finding set, witness bytes, the corpus, the memory plateau — is
// checked by deterministic tests.
//
// The benchmarks in bench_test.go are of two kinds. The paper-table
// benchmarks regenerate Tables 1–3, §7.1, §7.2, Figures 3–5, §8 and the
// §6.2 ablation; Figure 5 detection, §8 and the ablation fail on a wrong
// result. The single-layer micro-benchmarks time one layer in
// isolation: BenchmarkValidateIncremental the warm validation steady
// state, BenchmarkSec52_PipelineThroughput the cold generate → compile →
// validate rate, BenchmarkGeneration program generation,
// BenchmarkCompile the reference pass pipeline and
// BenchmarkEquivalenceQuery one solver equivalence query
// (BenchmarkSolveAssumingDescent in internal/smt/solver times
// incremental SAT calls). CI runs every root benchmark once:
//
//	go test -run=NONE -bench=. -benchtime=1x .
package gauntlet
