// Benchmark harness: one bench per table and figure of the paper's
// evaluation. Benches print their artifact once, then measure the
// regeneration cost. Speed claims come from the pinned workloads in
// bench/ instead (bench/README.md); CHANGES.md records each change's
// measurements.
package gauntlet_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/fleet"
	"gauntlet/internal/generator"
	"gauntlet/internal/obs"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/eval"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/printer"
	"gauntlet/internal/p4/types"
	"gauntlet/internal/persist"
	"gauntlet/internal/reduce"
	"gauntlet/internal/smt"
	"gauntlet/internal/smt/solver"
	"gauntlet/internal/sym"
	"gauntlet/internal/target/device"
	"gauntlet/internal/target/tofino"
	"gauntlet/internal/testgen"
	"gauntlet/internal/validate"
)

var printOnce sync.Map

func printArtifact(b *testing.B, key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Logf("\n%s", text)
	}
}

// BenchmarkTable1_McKeemanLevels regenerates the Table 1 study: how deep
// each input class penetrates the compiler.
func BenchmarkTable1_McKeemanLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.RunLevelStudy(10)
		printArtifact(b, "table1", s.Render())
	}
}

// campaignReport runs the full campaign once (shared by the Table 2/3 and
// deep-dive benches).
var campaignOnce sync.Once
var campaignReport *core.Report

func runCampaign(b *testing.B) *core.Report {
	campaignOnce.Do(func() {
		c := core.NewCampaign()
		dets, err := c.RunAll()
		if err != nil {
			b.Fatalf("campaign: %v", err)
		}
		campaignReport = core.NewReport(c.Registry, dets)
	})
	return campaignReport
}

// BenchmarkTable2_BugSummary regenerates Table 2: the campaign over all
// 91 filed / 78 confirmed seeded bugs, split by platform, kind and
// lifecycle status.
func BenchmarkTable2_BugSummary(b *testing.B) {
	rep := runCampaign(b)
	printArtifact(b, "table2", rep.Table2())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.NewCampaign()
		dets, err := c.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		_ = core.NewReport(c.Registry, dets).Table2()
	}
}

// BenchmarkTable3_BugLocations regenerates Table 3: front 33 / mid 13 /
// back 32.
func BenchmarkTable3_BugLocations(b *testing.B) {
	rep := runCampaign(b)
	printArtifact(b, "table3", rep.Table3())
	for i := 0; i < b.N; i++ {
		_ = rep.Table3()
	}
}

// BenchmarkSec71_RecentMerges regenerates the §7.1 regression series (16
// of 46 P4C bugs from weekly master merges).
func BenchmarkSec71_RecentMerges(b *testing.B) {
	rep := runCampaign(b)
	printArtifact(b, "sec71", rep.MergeWeekSeries())
	for i := 0; i < b.N; i++ {
		_ = rep.MergeWeekSeries()
	}
}

// BenchmarkSec72_RootCauses regenerates the §7.2 deep dive (18/25 type
// checker crashes, ≥8/21 copy-in/copy-out semantic bugs, 6 spec changes,
// 5 derivative reports, technique attribution).
func BenchmarkSec72_RootCauses(b *testing.B) {
	rep := runCampaign(b)
	printArtifact(b, "sec72", rep.DeepDive())
	for i := 0; i < b.N; i++ {
		_ = rep.DeepDive()
	}
}

const fig3Src = `
header Hdr_t { bit<8> a; bit<8> b; }
struct Hdr { Hdr_t h; }
control ingress(inout Hdr hdr) {
    action assign() { hdr.h.a = 8w1; }
    table t {
        key = { hdr.h.a : exact; }
        actions = { assign; NoAction; }
        default_action = NoAction();
    }
    apply { t.apply(); }
}
`

// BenchmarkFigure3_TableToFormula measures converting the Figure 3
// program into its symbolic functional form.
func BenchmarkFigure3_TableToFormula(b *testing.B) {
	prog, err := parser.Parse(fig3Src)
	if err != nil {
		b.Fatal(err)
	}
	if err := types.Check(prog); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		blk, err := sym.ExecControl(prog, prog.Control("ingress"))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var flat []sym.NamedTerm
			sym.Flatten("hdr", blk.Out[0].Val, &flat)
			printArtifact(b, "fig3", fmt.Sprintf("Figure 3 functional form:\n  %s = %s",
				flat[1].Name, flat[1].Term))
		}
	}
}

// BenchmarkFigure5_Detection hunts the six Figure 5 bug reproductions
// (5a–5f) end to end.
func BenchmarkFigure5_Detection(b *testing.B) {
	reg := bugs.Load()
	fig5 := map[string]string{
		"5a": "P4C-S-09", // SimplifyDefUse removes caller-scope variables
		"5b": "P4C-C-01", // type checker crash on unknown-width shift
		"5c": "P4C-S-15", // strength reduction slice bug
		"5d": "P4C-S-07", // disjoint slice assignment deleted
		"5e": "P4C-S-21", // validity update removed
		"5f": "P4C-S-06", // statement moved after exit
	}
	c := core.NewCampaign()
	for i := 0; i < b.N; i++ {
		var lines []byte
		for fig, id := range fig5 {
			bug := reg.ByID(id)
			if bug == nil {
				b.Fatalf("no bug %s", id)
			}
			det, err := c.Hunt(bug)
			if err != nil {
				b.Fatal(err)
			}
			if !det.Detected {
				b.Fatalf("Figure %s bug %s not detected", fig, id)
			}
			lines = append(lines, fmt.Sprintf("  Fig %s → %s via %s (%s)\n", fig, id, det.Technique, det.Via)...)
		}
		printArtifact(b, "fig5", "Figure 5 bug detections:\n"+string(lines))
	}
}

// BenchmarkSec8_SimulationRelations regenerates the §8 observation: how
// many validated pass transitions needed no simulation relation. With the
// per-width havoc semantics this reproduction uses, none do (the paper
// needed relations for 4 of 57).
func BenchmarkSec8_SimulationRelations(b *testing.B) {
	comp := compiler.New(compiler.DefaultPasses()...)
	for i := 0; i < b.N; i++ {
		transitions, unknown := 0, 0
		passes := map[string]bool{}
		for seed := int64(0); seed < 3; seed++ {
			prog := generator.Generate(generator.DefaultConfig(seed))
			res, err := comp.Compile(prog)
			if err != nil {
				b.Fatal(err)
			}
			verdicts, err := validate.Snapshots(res, validate.Options{MaxConflicts: 20000})
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range verdicts {
				transitions++
				passes[v.PassB] = true
				if v.Status == solver.Unknown {
					unknown++
				}
				if !v.Equivalent && v.Status == solver.Sat {
					b.Fatalf("reference pipeline miscompiled: %s", v)
				}
			}
		}
		printArtifact(b, "sec8", fmt.Sprintf(
			"§8 analogue: %d pass transitions over %d distinct passes validated;\n"+
				"%d needed simulation relations (havoc semantics); %d hit the conflict budget",
			transitions, len(passes), 0, unknown))
	}
}

// BenchmarkValidateIncremental measures the validation hot path with the
// shared formula/verdict cache warm: the steady-state cost of
// re-validating a compilation whose blocks are unchanged — what a
// campaign pays for every program after the first that exercises the same
// pass behaviours. Compare against BenchmarkSec52_PipelineThroughput
// (cold, private caches) for the incremental speedup.
func BenchmarkValidateIncremental(b *testing.B) {
	comp := compiler.New(compiler.DefaultPasses()...)
	prog := generator.Generate(generator.DefaultConfig(11))
	res, err := comp.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	cache := validate.NewCache()
	opts := validate.Options{MaxConflicts: 20000, Cache: cache}
	if _, err := validate.Snapshots(res, opts); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verdicts, err := validate.Snapshots(res, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(validate.Failures(verdicts)) != 0 {
			b.Fatal("reference pipeline flagged")
		}
	}
	if bh, bm, vh, vm := cache.Stats(); bh+bm > 0 {
		b.ReportMetric(float64(bh)/float64(bh+bm)*100, "block-hit-%")
		if vh+vm > 0 {
			b.ReportMetric(float64(vh)/float64(vh+vm)*100, "verdict-hit-%")
		}
	}
}

// BenchmarkSec52_PipelineThroughput measures the generate → compile →
// validate pipeline rate (the paper sustained ~10000 programs/week).
func BenchmarkSec52_PipelineThroughput(b *testing.B) {
	comp := compiler.New(compiler.DefaultPasses()...)
	for i := 0; i < b.N; i++ {
		prog := generator.Generate(generator.DefaultConfig(int64(i % 100)))
		res, err := comp.Compile(prog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := validate.Snapshots(res, validate.Options{MaxConflicts: 20000}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()*3600*24*7, "programs/week")
}

// BenchmarkGeneration measures raw random program generation (§4).
func BenchmarkGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog := generator.Generate(generator.DefaultConfig(int64(i)))
		_ = printer.Print(prog)
	}
}

// BenchmarkCompile measures the reference pass pipeline alone.
func BenchmarkCompile(b *testing.B) {
	prog := generator.Generate(generator.DefaultConfig(7))
	comp := compiler.New(compiler.DefaultPasses()...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.Compile(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEquivalenceQuery measures one solver equivalence check of the
// Figure 3 block against itself.
func BenchmarkEquivalenceQuery(b *testing.B) {
	prog, err := parser.Parse(fig3Src)
	if err != nil {
		b.Fatal(err)
	}
	if err := types.Check(prog); err != nil {
		b.Fatal(err)
	}
	blkA, _ := sym.ExecControl(prog, prog.Control("ingress"))
	blkB, _ := sym.ExecControl(prog, prog.Control("ingress"))
	eq := sym.Equivalent(blkA, blkB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := solver.Solve(0, smt.Not(eq))
		if res.Status != solver.Unsat {
			b.Fatal("self-equivalence must be unsat")
		}
	}
}

// BenchmarkConcolicFalsify measures the bit-parallel concrete fast path
// in the regime it exists for — equivalence queries with a real
// counterexample, the mismatch-verdict and reduction-candidate hot path.
// The harvest phase compiles fixed-seed programs through a pass pipeline
// instrumented with two miscompiling mutations and keeps the
// (input, final) pairs the defects made inequivalent; the timed runs
// re-validate those pairs through fresh caches with the tape stage off
// (every verdict goes to the solver) and on. Both report
// ns/equivalence-query; on also reports tape throughput (packets/sec)
// and the fraction of fresh verdicts a concrete counterexample settled
// before any solver call. The trajectory gate (cmd/benchjson) fails CI
// when that fraction is zero or when the fast path costs more than 5%
// over solver-only.
func BenchmarkConcolicFalsify(b *testing.B) {
	reg := bugs.Load()
	var active []*bugs.Bug
	for _, id := range []string{"P4C-S-02", "P4C-S-06"} {
		bug := reg.ByID(id)
		if bug == nil {
			b.Fatalf("registry has no bug %s", id)
		}
		active = append(active, bug)
	}
	comp := compiler.New(bugs.Instrument(compiler.DefaultPasses(), active)...)
	type progPair struct{ in, out *ast.Program }
	var pairs []progPair
	harvest := validate.NewCache()
	for seed := int64(0); len(pairs) < 8 && seed < 64; seed++ {
		res, err := comp.Compile(generator.Generate(generator.DefaultConfig(seed)))
		if err != nil {
			b.Fatal(err)
		}
		in, out := res.Snapshots[0].Prog, res.Final
		verdicts, err := validate.Pair(in, out, validate.Options{
			MaxConflicts: 20000, Cache: harvest})
		if err != nil {
			b.Fatal(err)
		}
		if len(validate.Failures(verdicts)) > 0 {
			pairs = append(pairs, progPair{in, out})
		}
	}
	if len(pairs) < 4 {
		b.Fatalf("only %d inequivalent pairs harvested; the seeded defects should fire more often", len(pairs))
	}
	run := func(b *testing.B, con validate.Concolic) float64 {
		var queries, misses, falsified, packets, fails uint64
		for i := 0; i < b.N; i++ {
			cache := validate.NewCache()
			for _, p := range pairs {
				verdicts, err := validate.Pair(p.in, p.out, validate.Options{
					MaxConflicts: 20000, Cache: cache, Concolic: con})
				if err != nil {
					b.Fatal(err)
				}
				fails += uint64(len(validate.Failures(verdicts)))
			}
			s := cache.Snapshot()
			queries += s.VerdictHits + s.VerdictMisses
			misses += s.VerdictMisses
			falsified += s.ConcolicFalsified
			packets += s.ConcolicPackets
		}
		if fails == 0 {
			b.Fatal("harvested inequivalent pairs produced no inequivalence verdicts")
		}
		nsPerQuery := float64(b.Elapsed().Nanoseconds()) / float64(queries)
		b.ReportMetric(nsPerQuery, "ns/equivalence-query")
		if !con.Disable {
			b.ReportMetric(float64(packets)/b.Elapsed().Seconds(), "packets/sec")
			b.ReportMetric(float64(falsified)/float64(misses)*100, "falsified-%")
		}
		return nsPerQuery
	}
	b.Run("off", func(b *testing.B) {
		concolicOffNs = run(b, validate.Concolic{Disable: true})
	})
	b.Run("on", func(b *testing.B) {
		ns := run(b, validate.Concolic{})
		if concolicOffNs > 0 {
			b.ReportMetric(ns/concolicOffNs, "x-vs-off")
		}
	})
}

var concolicOffNs float64

// BenchmarkGateReuse measures structural gate-cache reuse while blasting
// a near-identical miter — the reduction-candidate regime, where the two
// sides differ in one buried leaf. The reuse rate must be nonzero (the CI
// bench smoke asserts it): if the structural-hash path stops collapsing
// repeated structure, this fails rather than silently regressing.
func BenchmarkGateReuse(b *testing.B) {
	x := smt.Var("gx", 8)
	y := smt.Var("gy", 8)
	z := smt.Var("gz", 8)
	side := func(leaf uint64) *smt.Term {
		t := smt.Mul(smt.Add(x, y), z)
		u := smt.BVAnd(t, smt.BVXor(x, smt.Const(leaf, 8)))
		return smt.Sub(smt.BVOr(u, t), smt.Add(y, smt.BVXor(z, x)))
	}
	// Two sides sharing everything except one xor constant, plus a
	// commuted duplicate of the whole A side (pure gate-level overlap).
	miter := smt.Or(
		smt.Ne(side(0x10), side(0x20)),
		smt.Ne(smt.Add(x, y), smt.Add(y, x)))
	var pct float64
	for i := 0; i < b.N; i++ {
		bl := solver.NewBlaster()
		bl.Assert(miter)
		built, reused := bl.GateStats()
		if built+reused == 0 {
			b.Fatal("miter blasted no gates")
		}
		pct = float64(reused) / float64(built+reused) * 100
		if pct == 0 {
			b.Fatal("structural gate cache reported zero reuse on a near-identical miter")
		}
	}
	b.ReportMetric(pct, "gates-reused-%")
}

// BenchmarkCorpusFuzz measures the coverage-guided corpus engine against
// pure grammar generation on the same fixed budget: programs/sec (the
// mutation path adds a type-check gate and the admission round barrier —
// the CI gate in cmd/benchjson fails if that costs more than half the
// generation-mode throughput) and behavioural diversity (distinct
// coverage fingerprints reached, admission rate). SyncInterval is set
// below the batch size so mutation actually engages within the budget.
func BenchmarkCorpusFuzz(b *testing.B) {
	run := func(b *testing.B, ratio float64) {
		var admitted, rejected, fps, mutated uint64
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultEngineConfig()
			cfg.StartSeed = int64(i) * fuzzBatch
			cfg.Seeds = fuzzBatch
			cfg.Seed = 42 + int64(i)
			cfg.Workers = 8
			cfg.MutateRatio = ratio
			cfg.SyncInterval = 8
			cfg.MaxMutations = 6
			cfg.Passes = compiler.DefaultPasses()
			engine := core.NewEngine(cfg)
			if findings := engine.Run(context.Background()); len(findings) > 0 {
				b.Fatalf("reference pipeline produced findings: %+v", findings[0])
			}
			s := engine.Stats()
			admitted += s.Corpus.Admitted
			rejected += s.Corpus.Rejected
			fps += uint64(s.Corpus.Fingerprints)
			mutated += s.Mutated
		}
		b.ReportMetric(float64(b.N*fuzzBatch)/b.Elapsed().Seconds(), "programs/sec")
		if admitted+rejected > 0 {
			b.ReportMetric(float64(admitted)/float64(admitted+rejected)*100, "admission-%")
		}
		b.ReportMetric(float64(fps)/float64(b.N), "coverage-fingerprints/run")
		b.ReportMetric(float64(mutated)/float64(b.N), "mutated/run")
		if ratio > 0 && mutated == 0 {
			b.Fatal("mutation mode never mutated: the corpus feedback loop is dead")
		}
	}
	b.Run("generation", func(b *testing.B) { run(b, 0) })
	b.Run("mutation", func(b *testing.B) { run(b, 0.6) })
}

// BenchmarkServeEpochs measures the serve-mode memory contract at the
// layer it is enforced: three context epochs, each running the identical
// compile+validate workload (64 fixed-seed programs) in a fresh
// smt.Context + validate.Cache pair — exactly what core.Engine's
// rotation installs — and reporting every epoch's interner bytes. With
// an identical workload, any epoch-over-epoch growth is state leaking
// across rotations, so the trajectory gate (cmd/benchjson) fails CI when
// an epoch exceeds its predecessor by more than 15%.
//
// The epochs are driven serially rather than through the streaming
// engine on purpose: the pipeline runs ahead of the fold boundary, so
// engine-side epoch attribution smears tens of percent of one epoch's
// terms into its neighbours depending on scheduling — workload noise
// that would swamp a 15% gate. (Engine-level rotation correctness —
// determinism, drain, bounded live interner — is covered by the
// race-enabled core tests.)
func BenchmarkServeEpochs(b *testing.B) {
	const perEpoch = 64
	progs := make([]*ast.Program, perEpoch)
	for i := range progs {
		progs[i] = generator.Generate(generator.DefaultConfig(int64(i)))
	}
	comp := compiler.New(compiler.DefaultPasses()...)
	var epochBytes [3]float64
	var epochCount int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for epoch := 0; epoch < 3; epoch++ {
			cache := validate.NewCacheIn(smt.NewContext())
			opts := validate.Options{MaxConflicts: 20000, Cache: cache}
			for _, prog := range progs {
				res, err := comp.Compile(prog)
				if err != nil {
					b.Fatal(err)
				}
				verdicts, err := validate.Snapshots(res, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(validate.Failures(verdicts)) != 0 {
					b.Fatal("reference pipeline flagged")
				}
			}
			epochBytes[epoch] += float64(cache.Context().InternerStats().BytesEstimate)
		}
		epochCount++
	}
	b.ReportMetric(float64(3*perEpoch*epochCount)/b.Elapsed().Seconds(), "programs/sec")
	for j := 0; j < 3; j++ {
		b.ReportMetric(epochBytes[j]/float64(epochCount), fmt.Sprintf("epoch%d-ctx-bytes", j+1))
	}
}

// BenchmarkSymbolicExecutionTests measures Figure 4's test generation +
// device execution for a two-header program.
func BenchmarkSymbolicExecutionTests(b *testing.B) {
	prog := generator.Generate(generator.DefaultConfig(3))
	if err := types.Check(prog); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cases, err := testgen.Generate(prog, testgen.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printArtifact(b, "fig4", fmt.Sprintf("Figure 4 harness: %d test cases generated for seed-3 program", len(cases)))
		}
	}
}

// BenchmarkAblation_ModelPreferences quantifies the §6.2 design choice:
// with model preferences disabled (plain solver defaults), the seeded
// saturating-arithmetic back-end defect escapes its witness's packet
// tests; with preferences on, it is caught. The bench reports the number
// of mismatching cases in each mode.
func BenchmarkAblation_ModelPreferences(b *testing.B) {
	reg := bugs.Load()
	bug := reg.ByID("TOF-S-03")
	prog, err := parser.Parse(bug.Witness)
	if err != nil {
		b.Fatal(err)
	}
	if err := types.Check(prog); err != nil {
		b.Fatal(err)
	}
	pl := bugs.Instrument(append(compiler.DefaultPasses(), tofino.BackendPasses()...), []*bugs.Bug{bug})
	res, err := compiler.New(pl...).Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	dev := device.New(res.Final, eval.ZeroUndef)

	run := func(disable bool) int {
		opts := testgen.DefaultOptions()
		opts.DisablePreferences = disable
		cases, err := testgen.Generate(prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		mismatches := 0
		for _, c := range cases {
			obs, err := dev.Inject(c.Config, c.Packet)
			if err != nil {
				b.Fatal(err)
			}
			want := device.Result{Drop: c.ExpectDrop, Packet: c.ExpectPacket}
			if !device.Equal(want, obs) {
				mismatches++
			}
		}
		return mismatches
	}
	for i := 0; i < b.N; i++ {
		with := run(false)
		without := run(true)
		if i == 0 {
			printArtifact(b, "ablation-prefs", fmt.Sprintf(
				"§6.2 ablation (TOF-S-03 witness): mismatches with preferences = %d, without = %d",
				with, without))
			if with == 0 {
				b.Fatal("preferences enabled must catch the defect")
			}
		}
	}
}

// fuzzBatch is the per-iteration program count for the fuzz-throughput
// benchmarks: large enough to amortize pipeline spin-up, small enough for
// -benchtime=1x CI smoke runs.
const fuzzBatch = 64

// seqFuzzRate remembers the sequential baseline's programs/sec so the
// engine sub-benchmarks can report their speedup over it in the same run.
var seqFuzzRate float64

// BenchmarkEngineFuzz measures the streaming fuzzing engine (generate →
// compile → oracle → dedup → reduce over bounded channels and per-stage
// worker pools) against the sequential seed loop it replaced. The
// "sequential-baseline" case is the old `p4gauntlet -mode fuzz` body:
// one goroutine, a fresh private validation cache per program. The engine
// cases share one validation cache and the process-wide interner across
// workers while isolating everything mutable per program, so the oracle
// work spreads across cores: the x-vs-sequential metric tracks GOMAXPROCS
// (≈8× at 8 workers on ≥8 cores; on a single-core runner it can only show
// the pipeline's bounded overhead).
func BenchmarkEngineFuzz(b *testing.B) {
	b.Run("sequential-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			comp := compiler.New(compiler.DefaultPasses()...)
			for seed := int64(0); seed < fuzzBatch; seed++ {
				prog := generator.Generate(generator.DefaultConfig(int64(i)*fuzzBatch + seed))
				res, err := comp.Compile(prog)
				if err != nil {
					b.Fatal(err)
				}
				verdicts, err := validate.Snapshots(res, validate.Options{MaxConflicts: 20000})
				if err != nil {
					b.Fatal(err)
				}
				if fails := validate.Failures(verdicts); len(fails) > 0 {
					b.Fatalf("reference pipeline miscompiled seed %d: %s", seed, fails[0])
				}
			}
		}
		seqFuzzRate = float64(b.N*fuzzBatch) / b.Elapsed().Seconds()
		b.ReportMetric(seqFuzzRate, "programs/sec")
	})
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			gb0, gr0 := solver.GateStats()
			var simpResolved uint64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultEngineConfig()
				cfg.StartSeed = int64(i) * fuzzBatch
				cfg.Seeds = fuzzBatch
				cfg.Workers = workers
				cfg.Passes = compiler.DefaultPasses()
				engine := core.NewEngine(cfg)
				if findings := engine.Run(context.Background()); len(findings) > 0 {
					b.Fatalf("reference pipeline produced findings: %+v", findings[0])
				}
				simpResolved += engine.Stats().SimpResolved
			}
			rate := float64(b.N*fuzzBatch) / b.Elapsed().Seconds()
			b.ReportMetric(rate, "programs/sec")
			if seqFuzzRate > 0 {
				b.ReportMetric(rate/seqFuzzRate, "x-vs-sequential")
			}
			// Structural sharing effectiveness over the run: gate-cache
			// reuse in the blaster, and equivalence queries the word-level
			// simplifier answered without any solver call.
			gb1, gr1 := solver.GateStats()
			if total := (gb1 - gb0) + (gr1 - gr0); total > 0 {
				b.ReportMetric(float64(gr1-gr0)/float64(total)*100, "gates-reused-%")
			}
			b.ReportMetric(float64(simpResolved)/float64(b.N), "simp-resolved/run")
		})
	}
}

// BenchmarkResilientFuzz measures what the robustness layer costs on the
// fuzz hot path: the same fixed-seed engine workload run plain (the
// BenchmarkEngineFuzz configuration) and armed — stage watchdogs
// (supervised goroutine per stage call), the oracle deadline ladder, and
// durable state (fsynced findings journal plus periodic atomic corpus
// checkpoints). The trajectory gate in cmd/benchjson fails CI when the
// armed run gives up more than 5% of plain programs/sec.
func BenchmarkResilientFuzz(b *testing.B) {
	run := func(b *testing.B, arm func(b *testing.B, cfg *core.EngineConfig, engine **core.Engine)) float64 {
		var engine *core.Engine
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultEngineConfig()
			cfg.StartSeed = int64(i) * fuzzBatch
			cfg.Seeds = fuzzBatch
			cfg.Workers = 8
			cfg.Passes = compiler.DefaultPasses()
			if arm != nil {
				arm(b, &cfg, &engine)
			}
			engine = core.NewEngine(cfg)
			if findings := engine.Run(context.Background()); len(findings) > 0 {
				b.Fatalf("reference pipeline produced findings: %+v", findings[0])
			}
			if s := engine.Stats(); s.Quarantined != 0 {
				b.Fatalf("clean workload quarantined %d programs", s.Quarantined)
			}
		}
		rate := float64(b.N*fuzzBatch) / b.Elapsed().Seconds()
		b.ReportMetric(rate, "programs/sec")
		return rate
	}
	b.Run("plain", func(b *testing.B) {
		resilientPlainRate = run(b, nil)
	})
	b.Run("armed", func(b *testing.B) {
		st, err := persist.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		rate := run(b, func(b *testing.B, cfg *core.EngineConfig, engine **core.Engine) {
			cfg.StageTimeout = 30 * time.Second
			cfg.OracleTimeout = 10 * time.Second
			cfg.CheckpointPrograms = 32
			cfg.OnFinding = func(f core.Finding) {
				if err := st.AppendFinding(f); err != nil {
					b.Error(err)
				}
			}
			seedVal := cfg.Seed
			cfg.OnCheckpoint = func(next int64) {
				err := st.SaveCheckpoint(&persist.Checkpoint{
					NextSlot: next, Seed: seedVal, Corpus: (*engine).Corpus().Snapshot(),
				})
				if err != nil {
					b.Error(err)
				}
			}
		})
		if resilientPlainRate > 0 {
			b.ReportMetric((1-rate/resilientPlainRate)*100, "overhead-%")
		}
	})
}

var resilientPlainRate float64

// BenchmarkObsOverhead measures what the introspection plane costs on
// the fuzz hot path: the same fixed-seed engine workload run plain and
// with a metrics registry installed (per-stage latency histograms,
// per-tier equivalence-query histograms, the stats collector).
// Provenance traces are assembled in both arms — they are always on —
// so the delta isolates the instrument writes. The trajectory gate in
// cmd/benchjson fails CI when the instrumented run gives up more than
// 5% of plain programs/sec.
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, instrument bool) float64 {
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultEngineConfig()
			cfg.StartSeed = int64(i) * fuzzBatch
			cfg.Seeds = fuzzBatch
			cfg.Workers = 8
			cfg.Passes = compiler.DefaultPasses()
			if instrument {
				cfg.Obs = obs.NewRegistry()
			}
			engine := core.NewEngine(cfg)
			if findings := engine.Run(context.Background()); len(findings) > 0 {
				b.Fatalf("reference pipeline produced findings: %+v", findings[0])
			}
		}
		rate := float64(b.N*fuzzBatch) / b.Elapsed().Seconds()
		b.ReportMetric(rate, "programs/sec")
		return rate
	}
	b.Run("plain", func(b *testing.B) {
		obsPlainRate = run(b, false)
	})
	b.Run("instrumented", func(b *testing.B) {
		rate := run(b, true)
		if obsPlainRate > 0 {
			b.ReportMetric((1-rate/obsPlainRate)*100, "overhead-%")
		}
	})
}

var obsPlainRate float64

// BenchmarkParallelReduce measures speculative reduction on harvested
// compile-crash witnesses: a window of 1 (exact serial ddmin) against a
// window of 8 over the same findings, one finding at a time, so
// within-finding speculation is the only parallelism in play. The
// benchjson CI gate requires witness-diff == 0 at any core count — the
// reduced programs must be byte-identical, speculation may only buy or
// cost time — and scales its speedup floor with GOMAXPROCS: ≈linear on
// ≥8 cores, while on a single-core runner speculation cannot pay and the
// gate only bounds the waste overhead (see the procs metric).
func BenchmarkParallelReduce(b *testing.B) {
	reg := bugs.Load()
	var active []*bugs.Bug
	for _, id := range []string{"P4C-C-04", "P4C-C-13"} {
		bug := reg.ByID(id)
		if bug == nil {
			b.Fatalf("registry has no bug %s", id)
		}
		active = append(active, bug)
	}
	comp := compiler.New(bugs.Instrument(compiler.DefaultPasses(), active)...)
	type witness struct {
		prog *ast.Program
		pass string
	}
	var wits []witness
	for seed := int64(0); len(wits) < 6 && seed < 96; seed++ {
		prog := generator.Generate(generator.DefaultConfig(seed))
		if _, err := comp.Compile(prog); err != nil {
			var ce *compiler.CrashError
			if errors.As(err, &ce) {
				wits = append(wits, witness{prog, ce.Pass})
			}
		}
	}
	if len(wits) < 4 {
		b.Fatalf("only %d crash witnesses harvested; the seeded defects should fire more often", len(wits))
	}
	keepFor := func(w witness) reduce.PredicateCtx {
		return func(_ context.Context, cand *ast.Program) bool {
			_, err := comp.Compile(cand)
			var ce *compiler.CrashError
			return errors.As(err, &ce) && ce.Pass == w.pass
		}
	}
	run := func(b *testing.B, par int) (float64, []string) {
		var outs []string
		var agg reduce.Stats
		for i := 0; i < b.N; i++ {
			outs = outs[:0]
			for _, w := range wits {
				red, st := reduce.ReduceStats(context.Background(), w.prog, keepFor(w),
					reduce.Options{MaxRounds: 3, MaxPredicateCalls: 400, Parallelism: par})
				outs = append(outs, printer.Print(red))
				agg.SerialCalls += st.SerialCalls
				agg.Launched += st.Launched
				agg.Wasted += st.Wasted
			}
		}
		perWitness := float64(b.N * len(wits))
		ns := float64(b.Elapsed().Nanoseconds()) / perWitness
		b.ReportMetric(ns, "ns/witness")
		b.ReportMetric(float64(agg.SerialCalls)/perWitness, "serial-calls/witness")
		if agg.Launched > 0 {
			b.ReportMetric(float64(agg.Wasted)/float64(agg.Launched)*100, "wasted-%")
		}
		return ns, append([]string(nil), outs...)
	}
	b.Run("serial", func(b *testing.B) {
		parReduceSerialNs, parReduceSerialOut = run(b, 1)
	})
	b.Run("spec8", func(b *testing.B) {
		ns, outs := run(b, 8)
		diff := 0
		switch {
		case len(parReduceSerialOut) != len(outs):
			diff = len(outs)
		default:
			for i := range outs {
				if outs[i] != parReduceSerialOut[i] {
					diff++
				}
			}
		}
		b.ReportMetric(float64(diff), "witness-diff")
		if parReduceSerialNs > 0 {
			b.ReportMetric(parReduceSerialNs/ns, "x-vs-serial")
		}
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "procs")
	})
}

var parReduceSerialNs float64
var parReduceSerialOut []string

// BenchmarkFleetFuzz measures what fleet sharding buys and costs: the
// same fixed-seed, pure-generation workload run directly on one engine,
// through a coordinator with one in-process worker (the protocol,
// lease-merge and dedup machinery with zero parallelism to hide it —
// pure overhead), and with two workers (each engine capped at 2 stage
// workers, so the second worker adds real cores). The benchjson CI gate
// scales with the runner: 2 workers must beat 1 by ≥1.6x on 4+ procs and
// ≥1.1x on 2, while on a single core only the coordinator-overhead bound
// (fleet-1 within 10% of direct) applies.
func BenchmarkFleetFuzz(b *testing.B) {
	const syncInterval, leaseSlots, engineWorkers = 8, 8, 2
	runCfg := func() fleet.RunConfig {
		return fleet.RunConfig{
			Seed:          11,
			SyncInterval:  syncInterval,
			EngineWorkers: engineWorkers,
			Reduce:        false,
		}
	}
	fleetRun := func(b *testing.B, workers int) float64 {
		for i := 0; i < b.N; i++ {
			coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
				Run:        runCfg(),
				StartSeed:  int64(i) * fuzzBatch,
				Seeds:      fuzzBatch,
				LeaseSlots: leaseSlots,
			})
			if err != nil {
				b.Fatal(err)
			}
			ws := make([]fleet.WorkerConfig, workers)
			for j := range ws {
				ws[j] = fleet.WorkerConfig{Name: fmt.Sprintf("w%d", j)}
			}
			if err := fleet.RunLocal(context.Background(), coord, ws); err != nil {
				b.Fatal(err)
			}
			if fs := coord.Findings(); len(fs) > 0 {
				b.Fatalf("reference pipeline produced findings: %+v", fs[0])
			}
		}
		rate := float64(b.N*fuzzBatch) / b.Elapsed().Seconds()
		b.ReportMetric(rate, "programs/sec")
		return rate
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultEngineConfig()
			cfg.StartSeed = int64(i) * fuzzBatch
			cfg.Seeds = fuzzBatch
			cfg.Seed = 11
			cfg.MutateRatio = 0
			cfg.SyncInterval = syncInterval
			cfg.Workers = engineWorkers
			cfg.Reduce = false
			cfg.Passes = compiler.DefaultPasses()
			engine := core.NewEngine(cfg)
			if findings := engine.Run(context.Background()); len(findings) > 0 {
				b.Fatalf("reference pipeline produced findings: %+v", findings[0])
			}
		}
		fleetDirectRate = float64(b.N*fuzzBatch) / b.Elapsed().Seconds()
		b.ReportMetric(fleetDirectRate, "programs/sec")
	})
	b.Run("workers-1", func(b *testing.B) {
		fleet1Rate = fleetRun(b, 1)
		if fleetDirectRate > 0 {
			b.ReportMetric((1-fleet1Rate/fleetDirectRate)*100, "overhead-%")
		}
	})
	b.Run("workers-2", func(b *testing.B) {
		rate := fleetRun(b, 2)
		if fleet1Rate > 0 {
			b.ReportMetric(rate/fleet1Rate, "x-vs-1worker")
		}
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "procs")
	})
}

var fleetDirectRate, fleet1Rate float64
