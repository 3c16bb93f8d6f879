package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/fleet"
	"gauntlet/internal/generator"
	"gauntlet/internal/obs"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/persist"
	"gauntlet/internal/target/bmv2"
	"gauntlet/internal/target/tofino"
	"gauntlet/internal/testgen"
)

// Every workload is pinned to master seed pinnedSeed over the slot range
// [pinnedSlotBase, pinnedSlotBase+slots), whatever -seed says. A program's
// oracle cost is heavy-tailed: over 6000 generated v1model programs the
// median took 3.3 ms, the mean 49 ms and the slowest 16.5 s, almost all
// of it in a few CDCL queries. Letting the seed pick the programs (or
// only the mutation schedule) therefore made one repetition's throughput
// vary up to five-fold between seeds, far beyond any useful regression
// bound; see README.md.
const (
	pinnedSeed     = 1
	pinnedSlotBase = pinnedSeed * 1_000_000
)

// mutateRatio is the share of slots drawn by corpus mutation on the
// engine workloads (the CLI default).
const mutateRatio = 0.5

// serveEpochPrograms is serve-defects' epoch length and checkpoint
// cadence, scaled down from the CLI's serve defaults so that one
// repetition rotates twice.
const serveEpochPrograms = 32

// fleetLeaseSlots is fleet-gen's lease length, a multiple of the sync
// interval as the coordinator requires.
const fleetLeaseSlots = 64

// workload is one pinned campaign: a configuration of the public entry
// points plus a fixed slot budget. The budget never depends on the run
// length, so a longer run measures more repetitions of the same work,
// never different work.
type workload struct {
	name string
	// why is the one-line reason the workload exists (mirrored in
	// BENCHMARK.json and README.md).
	why   string
	slots int64
	// defects are the registry bugs instrumented into the reference
	// pipeline; every finding must be explained by one of them.
	defects     []string
	backend     generator.Backend
	blackBox    bool
	packetTests bool
	// serve adds serve mode's epoch rotation, stage watchdog, findings
	// journal and checkpoints.
	serve bool
	// fleet runs the campaign through fleet.RunLocal instead of one engine.
	fleet bool
}

// workloads is the pinned set, in report order.
var workloads = []*workload{
	{
		name:    "tv-campaign",
		why:     "front/mid-end translation-validation campaign with mutation: CDCL carries the oracle, testgen and reduction sit idle",
		slots:   256,
		backend: generator.V1Model,
	},
	{
		name:        "blackbox-tna",
		why:         "TNA back-end campaign with 4 Tofino defects, packet tests only: no validation queries, reduction carries a large share",
		slots:       64,
		defects:     []string{"TOF-S-01", "TOF-C-03", "TOF-C-16", "TOF-S-08"},
		backend:     generator.TNA,
		blackBox:    true,
		packetTests: true,
	},
	{
		name:        "serve-defects",
		why:         "serve-shaped run with 5 P4C defects: both oracles, epoch rotation, findings journal and checkpoints on disk",
		slots:       64,
		defects:     []string{"P4C-C-14", "P4C-C-22", "P4C-S-06", "P4C-S-16", "P4C-S-17"},
		backend:     generator.V1Model,
		packetTests: true,
		serve:       true,
	},
	{
		name:    "fleet-gen",
		why:     "pure-generation validation campaign through the fleet executor: leases, watermark merge, in-process pipes",
		slots:   384,
		backend: generator.V1Model,
		fleet:   true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// referencePasses is the backend's reference pipeline.
func (w *workload) referencePasses() []compiler.Pass {
	if w.backend == generator.TNA {
		return append(compiler.DefaultPasses(), tofino.BackendPasses()...)
	}
	return append(compiler.DefaultPasses(), bmv2.BackendPasses()...)
}

// activeBugs loads the registry and resolves the workload's defects.
func (w *workload) activeBugs() ([]*bugs.Bug, error) {
	reg := bugs.Load()
	var active []*bugs.Bug
	for _, id := range w.defects {
		b := reg.ByID(id)
		if b == nil {
			return nil, fmt.Errorf("defect registry has no bug %q", id)
		}
		active = append(active, b)
	}
	return active, nil
}

// params are the inputs of one campaign repetition.
type params struct {
	slots int64
	// tr is the span recorder; nil for untraced repetitions, which install
	// no wrapper and no metrics registry at all.
	tr *tracer
	// dir is a private directory for persistent state.
	dir string
}

// campaign is one set-up campaign, ready to run.
type campaign struct {
	run func(ctx context.Context) (*outcome, error)
	// close releases what set-up acquired.
	close func() error
}

// outcome is what one campaign run reports.
type outcome struct {
	findings []core.Finding
	// foundAfter is each unique finding's report time since Run started.
	foundAfter []time.Duration
	// stats is the engine's final Stats (engine workloads only).
	stats *core.Stats
	// fleet is the coordinator's final status (fleet workload only).
	fleet *fleet.FleetStatus
	// reg is the traced run's metrics registry (nil when untraced).
	reg *obs.Registry
	// quarantined counts quarantine records by stage (engine only).
	quarantined map[string]uint64
	// epochs, appends and checkpoints count the serve callbacks.
	epochs, appends, checkpoints int
}

// failed counts slots whose examination did not complete: quarantined
// units plus tool limitations.
func (o *outcome) failed() uint64 {
	if s := o.stats; s != nil {
		return s.Quarantined + s.CompileErrors + s.OracleErrors
	}
	return o.fleet.Totals.Quarantined + o.fleet.Totals.ToolErrors
}

// start sets the campaign up: registry load, instrumentation, persist
// open and engine or coordinator construction. It is the timed set-up.
func (w *workload) start(p params) (*campaign, error) {
	if w.fleet {
		return w.startFleet(p)
	}
	return w.startEngine(p)
}

// recorder collects what the campaign's callbacks observe; they run on
// the engine's report and collector goroutines.
type recorder struct {
	mu       sync.Mutex
	runStart time.Time
	out      outcome
	err      error
}

func (r *recorder) found() {
	d := time.Since(r.runStart)
	r.mu.Lock()
	r.out.foundAfter = append(r.out.foundAfter, d)
	r.mu.Unlock()
}

func (r *recorder) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

func (w *workload) startEngine(p params) (*campaign, error) {
	passes := w.referencePasses()
	if len(w.defects) > 0 {
		active, err := w.activeBugs()
		if err != nil {
			return nil, err
		}
		passes = bugs.Instrument(passes, active)
	}
	gen := func(seed int64) *ast.Program {
		gc := generator.DefaultConfig(seed)
		gc.Backend = w.backend
		return generator.Generate(gc)
	}
	cfg := core.DefaultEngineConfig()
	cfg.Seed = pinnedSeed
	cfg.StartSeed = pinnedSlotBase
	cfg.Seeds = p.slots
	cfg.Workers = runtime.GOMAXPROCS(0)
	cfg.Backend = w.backend
	cfg.MutateRatio = mutateRatio
	cfg.BlackBox = w.blackBox
	cfg.PacketTests = w.packetTests
	cfg.Generate = gen
	cfg.Passes = passes
	if p.tr != nil {
		cfg.Generate = p.tr.wrapGenerate(gen)
		cfg.Passes = p.tr.wrapPasses(passes)
		cfg.Obs = obs.NewRegistry()
	}
	rec := &recorder{out: outcome{reg: cfg.Obs, quarantined: map[string]uint64{}}}
	cfg.OnQuarantine = func(q core.QuarantineRecord) {
		rec.mu.Lock()
		rec.out.quarantined[q.Stage]++
		rec.mu.Unlock()
	}
	cfg.OnFinding = func(core.Finding) { rec.found() }

	var st *persist.State
	var e *core.Engine
	if w.serve {
		var err error
		if st, err = persist.Open(p.dir); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		cfg.EpochPrograms = serveEpochPrograms
		cfg.CheckpointPrograms = serveEpochPrograms
		cfg.StageTimeout = 30 * time.Second
		cfg.OnFinding = func(f core.Finding) {
			rec.found()
			start := p.tr.begin()
			if err := st.AppendFinding(f); err != nil {
				rec.fail(fmt.Errorf("journal: %w", err))
			}
			p.tr.end(start, "persist", "append", f.Seed)
			rec.mu.Lock()
			rec.out.appends++
			rec.mu.Unlock()
		}
		cfg.OnCheckpoint = func(next int64) {
			start := p.tr.begin()
			s := e.Stats()
			err := st.SaveCheckpoint(&persist.Checkpoint{
				NextSlot:    next,
				Seed:        cfg.Seed,
				MutateRatio: cfg.MutateRatio,
				Corpus:      e.Corpus().Snapshot(),
				Totals: persist.Totals{
					Programs: s.Generated, Findings: s.UniqueFindings, Duplicates: s.Duplicates,
					ToolErrors: s.CompileErrors + s.OracleErrors, Quarantined: s.Quarantined,
				},
				Epoch: s.Epoch,
			})
			if err != nil {
				rec.fail(fmt.Errorf("checkpoint: %w", err))
			}
			p.tr.end(start, "persist", "checkpoint", next)
			rec.mu.Lock()
			rec.out.checkpoints++
			rec.mu.Unlock()
		}
		cfg.OnEpoch = func(core.EpochStats) {
			rec.mu.Lock()
			rec.out.epochs++
			rec.mu.Unlock()
		}
	}
	e = core.NewEngine(cfg)
	return &campaign{
		run: func(ctx context.Context) (*outcome, error) {
			rec.runStart = time.Now()
			findings := e.Run(ctx)
			s := e.Stats()
			rec.mu.Lock()
			defer rec.mu.Unlock()
			o := rec.out
			o.findings, o.stats = findings, &s
			return &o, rec.err
		},
		close: func() error {
			if st == nil {
				return nil
			}
			err := st.Close()
			if rerr := os.RemoveAll(p.dir); err == nil {
				err = rerr
			}
			return err
		},
	}, nil
}

func (w *workload) startFleet(p params) (*campaign, error) {
	var reg *obs.Registry
	if p.tr != nil {
		reg = obs.NewRegistry()
	}
	rec := &recorder{out: outcome{reg: reg}}
	c, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Run: fleet.RunConfig{
			Seed:          pinnedSeed,
			Backend:       w.backend.String(),
			SyncInterval:  core.DefaultSyncInterval,
			EngineWorkers: 1,
			Reduce:        true,
		},
		StartSeed:  pinnedSlotBase,
		Seeds:      p.slots,
		LeaseSlots: fleetLeaseSlots,
		Obs:        reg,
		OnFinding:  func(core.Finding) { rec.found() },
	})
	if err != nil {
		return nil, err
	}
	workers := make([]fleet.WorkerConfig, runtime.GOMAXPROCS(0))
	for i := range workers {
		workers[i] = fleet.WorkerConfig{Name: workerName(i)}
	}
	return &campaign{
		run: func(ctx context.Context) (*outcome, error) {
			rec.runStart = time.Now()
			if err := fleet.RunLocal(ctx, c, workers); err != nil {
				return nil, err
			}
			st := c.Status()
			rec.mu.Lock()
			defer rec.mu.Unlock()
			o := rec.out
			o.findings, o.fleet = c.Findings(), &st
			return &o, nil
		},
		close: func() error { return nil },
	}, nil
}

// workerName names fleet worker i; the lease-latency series are keyed by it.
func workerName(i int) string { return fmt.Sprintf("w%d", i) }

// unexplained counts the findings no instrumented defect explains. Crash,
// invalid-transform and miscompilation findings name their pass; a
// black-box mismatch names none, so its witness is re-examined with each
// defect instrumented alone.
func (w *workload) unexplained(ctx context.Context, findings []core.Finding) (int, error) {
	if len(w.defects) == 0 {
		return len(findings), nil
	}
	active, err := w.activeBugs()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, f := range findings {
		if !w.explained(ctx, active, f) {
			n++
		}
	}
	return n, nil
}

func (w *workload) explained(ctx context.Context, active []*bugs.Bug, f core.Finding) bool {
	for _, b := range active {
		if f.Pass != "" {
			if b.Pass == f.Pass {
				return true
			}
			continue
		}
		o := core.Oracle{
			Passes:       bugs.Instrument(w.referencePasses(), []*bugs.Bug{b}),
			MaxConflicts: core.DefaultEngineConfig().MaxConflicts,
			TestOpts:     testgen.DefaultOptions(),
			Validate:     !w.blackBox,
			PacketTests:  w.packetTests,
		}
		if f.Program != nil && o.Examine(ctx, f.Program).Finding() {
			return true
		}
	}
	return false
}
