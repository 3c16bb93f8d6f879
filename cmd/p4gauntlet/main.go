// Command p4gauntlet runs the full bug-finding campaign over the seeded
// defect registry and prints the paper's evaluation artifacts: Table 1
// (input-class penetration), Table 2 (bug summary), Table 3 (locations),
// the §7 deep-dive statistics and the merge-week regression series.
//
// Fuzz mode is the continuous-integration usage the paper proposes
// (§7.1): a streaming, stage-parallel engine generates random programs —
// mixing fresh grammar generation with coverage-guided corpus mutation at
// -mutate-ratio — pushes each through the reference pipeline,
// interrogates every compilation with translation validation and
// symbolic-execution packet tests, fingerprints and deduplicates the
// findings, and auto-reduces each unique witness (§8's "we hope to
// automate this process"). A fixed -seed replays the entire run,
// mutation schedule included; -corpus persists the admitted seed pool
// across campaigns.
//
// Serve mode is the long-running deployment shape: fuzz mode with
// unbounded seeds by default, memory bounded by epoch rotation
// (-epoch-programs N retires the solver stack's term interner, simplify
// memo and verdict cache every N programs, at deterministic round
// boundaries), periodic JSONL stats (including per-epoch context
// bytes/entries) and a graceful SIGTERM/SIGINT drain: on signal the
// pipeline stops scheduling, in-flight stages wind down, the corpus is
// saved and a final stats record closes the stream.
//
// Serve is also crash-resilient. Stage watchdogs (-stage-timeout, on by
// default in serve) quarantine any program whose stage panics or stalls —
// the witness, stage, and symptom land in DIR/quarantine — and the oracle
// escalation ladder (-oracle-timeout) degrades over-budget verdicts to an
// explicit Unknown instead of wedging a worker. With -state DIR every
// finding is fsynced to an append-only journal before it is reported, and
// the corpus plus seed watermark are checkpointed atomically at fold
// boundaries; after a crash or kill -9, -resume DIR restores the corpus
// and watermark and pre-seeds deduplication from the journal, so the
// daemon continues where it stopped without re-reporting findings. SIGHUP
// forces a checkpoint and a stats flush without draining. The -inject-*
// flags drive the deterministic fault-injection harness used by the
// chaos-smoke CI job.
//
// With -http ADDR (fuzz and serve modes) the process serves an admin
// plane for live introspection: /metrics (Prometheus text format, with
// per-stage and per-solver-tier latency histograms), /statusz (JSON:
// stats, health, recent epochs, recent quarantines), /healthz (liveness
// keyed off round-fold progress — a wedged pipeline reports 503) and
// /debug/pprof/*. The listener drains gracefully when the run ends.
//
// Coordinator/worker mode shards a bounded campaign across processes:
// the coordinator (-mode coordinator -listen ADDR) partitions the seed
// stream into work leases, each worker (-mode worker -connect ADDR) runs
// the unchanged streaming engine over its leases, and the coordinator
// merges results in canonical lease order with fleet-wide fingerprint
// dedup — so for a fixed -seeds budget the fleet's findings, witnesses
// and report order are identical to a single-process run at any worker
// count. A lease result carries only its findings and counters. Leases
// held by lost or hung workers expire and re-issue; -fleet N forks N
// local workers for one-command scale-out; -state / -resume give the
// coordinator the same journal/checkpoint crash resilience as serve mode,
// restoring the watermark, the totals and journal-seeded dedup. Fleet
// campaigns are pure-generation (-mutate-ratio must be 0, and -corpus is
// refused): lease replay must not depend on cross-lease corpus state, so
// the coordinator keeps no corpus.
//
// Usage:
//
//	p4gauntlet [-mode campaign|levels|fuzz|serve|coordinator|worker]
//	           [-seeds N] [-workers N]
//	           [-duration D] [-backend v1model|tna] [-jsonl FILE]
//	           [-packets] [-reduce] [-start N] [-seed N]
//	           [-mutate-ratio F] [-corpus DIR] [-stats-interval D]
//	           [-epoch-programs N] [-state DIR | -resume DIR]
//	           [-checkpoint-programs N] [-stage-timeout D]
//	           [-oracle-timeout D] [-http ADDR] [-inject-every N]
//	           [-inject-seed N] [-inject-stages LIST] [-inject-stall D]
//	           [-listen ADDR] [-connect ADDR] [-fleet N] [-lease-slots N]
//	           [-lease-timeout D] [-worker-name NAME] [-defects LIST]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"gauntlet/internal/core"
	"gauntlet/internal/corpus"
	"gauntlet/internal/faultinject"
	"gauntlet/internal/obs"
	"gauntlet/internal/persist"
)

func main() {
	mode, ff, fl, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag package has already printed the error
	}
	switch mode {
	case "campaign":
		campaign()
	case "levels":
		fmt.Print(core.RunLevelStudy(int(ff.seeds)).Render())
	case "coordinator":
		coordinatorMain(ff, fl)
	case "worker":
		workerMain(fl)
	case "fuzz", "serve":
		if mode == "serve" {
			// Serve is fuzz shaped for multi-day runs: unbounded seed
			// stream, bounded memory, observable by default.
			ff.serve = true
			if !ff.explicit["seeds"] {
				ff.seeds = 0
			}
			if !ff.explicit["epoch-programs"] {
				ff.epochPrograms = 4096
			}
			if !ff.explicit["stats-interval"] {
				ff.statsInterval = 30 * time.Second
			}
			if !ff.explicit["jsonl"] {
				// Observable by default: without an explicit sink the
				// periodic stats, epoch and finding records stream to
				// stdout — a multi-day run must never be silent until
				// its final summary.
				ff.jsonl = "-"
			}
			if !ff.explicit["stage-timeout"] {
				// A multi-day run must survive a single pathological
				// program: watchdog on by default.
				ff.stageTimeout = 30 * time.Second
			}
			if ff.epochPrograms <= 0 {
				die(2, "serve mode requires -epoch-programs > 0 (memory would grow unbounded)")
			}
		}
		fuzz(ff)
	default:
		die(2, "unknown mode %q", mode)
	}
}

// parseFlags parses the command line into the mode and its settings.
func parseFlags(args []string) (mode string, ff fuzzFlags, fl fleetFlags, err error) {
	fs := flag.NewFlagSet("p4gauntlet", flag.ContinueOnError)
	fs.StringVar(&mode, "mode", "campaign", "campaign | levels | fuzz | serve")
	fs.Int64Var(&ff.seeds, "seeds", 50, "random programs (fuzz mode, 0 = unbounded; serve mode defaults to 0) / samples per class (levels mode)")
	fs.Int64Var(&ff.start, "start", 0, "first generator seed (fuzz mode)")
	fs.Int64Var(&ff.seed, "seed", 0, "master schedule seed (fuzz mode): the same -seed replays the whole run, mutation schedule included")
	fs.IntVar(&ff.workers, "workers", 0, "per-stage worker pool size (fuzz mode, 0 = GOMAXPROCS)")
	fs.DurationVar(&ff.duration, "duration", 0, "wall-clock budget (fuzz mode, 0 = until seeds are exhausted)")
	fs.StringVar(&ff.backend, "backend", "v1model", "generator/pipeline backend: v1model | tna")
	fs.StringVar(&ff.jsonl, "jsonl", "", "append unique findings as JSON lines to FILE (\"-\" = stdout)")
	fs.BoolVar(&ff.packets, "packets", true, "run symbolic-execution packet tests in addition to translation validation")
	fs.BoolVar(&ff.concolic, "concolic", true, "bit-parallel concrete falsification under every equivalence query plus trace-steered test enumeration; -concolic=false sends every verdict straight to the solver (bisection / invariance checking)")
	fs.BoolVar(&ff.reduce, "reduce", true, "auto-reduce each unique finding's witness")
	fs.Float64Var(&ff.mutateRatio, "mutate-ratio", 0.5, "fraction of programs drawn by mutating corpus seeds (fuzz mode, 0 = pure grammar generation)")
	fs.StringVar(&ff.corpusDir, "corpus", "", "corpus directory: load seeds before the run and save the admitted corpus after (fuzz/serve mode; coordinator mode refuses it, since a fleet keeps no corpus)")
	fs.DurationVar(&ff.statsInterval, "stats-interval", 0, "emit a periodic stats record to -jsonl every D (fuzz/serve mode; serve defaults to 30s, fuzz to final record only)")
	fs.IntVar(&ff.epochPrograms, "epoch-programs", 0, "rotate the solver context + caches every N programs, bounding per-epoch memory (serve mode defaults to 4096; 0 in fuzz mode = never)")
	fs.StringVar(&ff.stateDir, "state", "", "durable state directory (fuzz/serve mode): fsynced findings journal, periodic atomic checkpoints and quarantine records")
	fs.StringVar(&ff.resumeDir, "resume", "", "resume a killed campaign from the durable state in DIR (implies -state DIR): restores the seed watermark (and in fuzz/serve mode the corpus) from the checkpoint and pre-seeds dedup from the journal so reprocessed slots are never re-reported")
	fs.IntVar(&ff.checkpointPrograms, "checkpoint-programs", 0, "checkpoint cadence in folded programs (needs -state; 0 = every epoch, or every 256 programs when epochs are off)")
	fs.DurationVar(&ff.stageTimeout, "stage-timeout", 0, "per-program stall budget for each pipeline stage: a stage body exceeding it is abandoned and the program quarantined (serve mode defaults to 30s; 0 disables the watchdog)")
	fs.DurationVar(&ff.oracleTimeout, "oracle-timeout", 0, "wall-clock budget for one program's oracle inspection: on expiry the ladder retries once at doubled budgets, then degrades the verdict to Unknown (0 disables)")
	fs.StringVar(&ff.httpAddr, "http", "", "serve the admin/introspection endpoints (/metrics, /statusz, /healthz, /debug/pprof) on ADDR (fuzz/serve mode; e.g. 127.0.0.1:8080, \"\" disables)")
	fs.Int64Var(&ff.injectEvery, "inject-every", 0, "fault injection for resilience testing: deterministically fault ~1/N units per stage (0 disables)")
	fs.Int64Var(&ff.injectSeed, "inject-seed", 1, "fault-injection plan seed (with -inject-every)")
	fs.StringVar(&ff.injectStages, "inject-stages", "generate,compile,oracle,reduce", "comma-separated stages to inject into (with -inject-every)")
	fs.DurationVar(&ff.injectStall, "inject-stall", 5*time.Second, "injected stall duration (with -inject-every); set above -stage-timeout to exercise abandonment")
	fs.StringVar(&fl.listen, "listen", "", "coordinator mode: accept worker connections on ADDR (host:port, or a socket path containing '/')")
	fs.StringVar(&fl.connect, "connect", "", "worker mode: dial the coordinator at ADDR (retrying while it boots)")
	fs.IntVar(&fl.forkWorkers, "fleet", 0, "coordinator mode: fork N local worker processes of this binary against -listen (0 = external workers only)")
	fs.Int64Var(&fl.leaseSlots, "lease-slots", 0, "coordinator mode: seeds per work lease; must be a multiple of the engine sync interval (0 = 4 sync intervals)")
	fs.DurationVar(&fl.leaseTimeout, "lease-timeout", 0, "coordinator mode: re-issue a lease not completed within D — set above a lease's worst-case wall clock (0 = 2m); /healthz reports a stall after 5/2 D without a lease release")
	fs.StringVar(&fl.workerName, "worker-name", "", "worker mode: name for logs and per-worker metrics (default worker-PID)")
	fs.StringVar(&ff.defects, "defects", "", "comma-separated bug registry IDs to instrument into the backend's reference pipeline (fuzz/serve/coordinator mode; the CI smoke harness's known-defect seeding)")
	if err := fs.Parse(args); err != nil {
		return mode, ff, fl, err
	}
	ff.explicit = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { ff.explicit[f.Name] = true })
	return mode, ff, fl, nil
}

// die reports a fatal error and exits: code 2 for unusable flags, 1 for
// everything else.
func die(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "p4gauntlet: "+format+"\n", args...)
	os.Exit(code)
}

// campaign hunts all 91 filed bugs and prints the tables.
func campaign() {
	c := core.NewCampaign()
	fmt.Printf("hunting %d filed bugs (%d confirmed) across P4C, BMv2 and Tofino...\n\n",
		len(c.Registry.Bugs), len(c.Registry.Confirmed()))
	dets, err := c.RunAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4gauntlet: %v\n", err)
		os.Exit(1)
	}
	rep := core.NewReport(c.Registry, dets)
	fmt.Println(rep.Table2())
	fmt.Println(rep.Table3())
	fmt.Println(rep.DeepDive())
	fmt.Println(rep.MergeWeekSeries())
	if missed := rep.Missed(); len(missed) > 0 {
		fmt.Println("MISSED confirmed bugs:")
		for _, m := range missed {
			fmt.Println("  ", m)
		}
		os.Exit(1)
	}
	fmt.Println("all confirmed bugs detected.")
}

type fuzzFlags struct {
	seeds, start, seed int64
	workers            int
	duration           time.Duration
	backend            string
	jsonl              string
	packets            bool
	reduce             bool
	concolic           bool
	mutateRatio        float64
	corpusDir          string
	statsInterval      time.Duration
	epochPrograms      int
	serve              bool
	stateDir           string
	resumeDir          string
	checkpointPrograms int
	stageTimeout       time.Duration
	oracleTimeout      time.Duration
	httpAddr           string
	injectEvery        int64
	injectSeed         int64
	injectStages       string
	injectStall        time.Duration
	defects            string
	explicit           map[string]bool
}

// statuszPayload is the /statusz JSON document: one self-describing
// snapshot of a live daemon — stats (corpus summary included), health,
// and bounded rings of recent epoch retirements and quarantines.
type statuszPayload struct {
	Mode       string                  `json:"mode"`
	PID        int                     `json:"pid"`
	Started    time.Time               `json:"started"`
	Now        time.Time               `json:"now"`
	Health     core.Health             `json:"health"`
	Stats      core.Stats              `json:"stats"`
	Epochs     []core.EpochStats       `json:"epochs,omitempty"`
	Quarantine []core.QuarantineRecord `json:"quarantine,omitempty"`
}

// fuzz drives the streaming engine: the long-running bug-hunting service
// the paper's CI proposal asks for, as a thin wrapper over core.Engine
// plus the corpus directory and JSONL observability plumbing.
func fuzz(ff fuzzFlags) {
	cfg, err := engineConfig(ff)
	if err != nil {
		die(2, "%v", err)
	}
	if ff.corpusDir != "" {
		c := corpus.New(0)
		if n, err := c.Load(ff.corpusDir); err == nil {
			fmt.Fprintf(os.Stderr, "corpus: loaded %d seeds from %s\n", n, ff.corpusDir)
		} else if !os.IsNotExist(err) {
			die(1, "corpus load: %v", err)
		}
		cfg.Corpus = c
	}

	// human carries the progress lines (findings, epoch retirements,
	// summary). When the JSONL stream owns stdout, they move to stderr so
	// `p4gauntlet -mode serve | jq .` stays parseable.
	human := io.Writer(os.Stdout)
	if ff.jsonl == "-" {
		human = os.Stderr
	}
	// The engine is declared here (assigned after configuration below) so
	// the JSONL drop path can count lost records on it: a long-lived
	// daemon's sick sink must be visible to a scraper (Stats.RecordsDropped,
	// /statusz), not only to whoever tails stderr.
	var engine *core.Engine
	jw, closeJSONL := openJSONL(ff.jsonl, func() {
		if engine != nil {
			engine.NoteDroppedRecord()
		}
	})
	defer closeJSONL()
	// statsRecord is the self-describing stats line: periodic records
	// (Final=false) make long campaigns observable mid-flight; the final
	// record closes the stream.
	type statsRecord struct {
		Stats core.Stats `json:"stats"`
		Final bool       `json:"final"`
	}
	// epochRecord marks one context rotation: the retiring epoch's
	// interner/cache bytes and counters, so a JSONL stream shows the
	// memory plateau epoch by epoch.
	type epochRecord struct {
		Epoch core.EpochStats `json:"epoch"`
	}
	cfg.OnEpoch = func(es core.EpochStats) {
		fmt.Fprintf(human, "epoch %d retired: %d programs, %d terms (~%.1f MiB), simp %d entries, verdicts %d\n",
			es.Index, es.Programs, es.Context.Interner.Entries,
			float64(es.Context.Interner.BytesEstimate)/(1<<20),
			es.Context.Simp.Entries, es.Cache.VerdictHits+es.Cache.VerdictMisses)
		jw.write(epochRecord{Epoch: es}, fmt.Sprintf("epoch %d", es.Index))
	}
	cfg.OnFinding = func(f core.Finding) { reportFinding(human, jw, f) }
	cfg.OnOracleError = func(seed int64, err error) {
		fmt.Fprintf(os.Stderr, "seed %d: tool limitation: %v\n", seed, err)
	}
	cfg.OnQuarantine = func(rec core.QuarantineRecord) {
		fmt.Fprintf(os.Stderr, "seed %d: quarantined at %s stage (%s): %s\n",
			rec.Seed, rec.Stage, rec.Kind, rec.Symptom)
	}

	// Admin/introspection plane (-http): a metrics registry feeds
	// /metrics, and bounded rings of recent epoch retirements and
	// quarantine records feed /statusz. The rings wrap the base callbacks
	// here so later wrappers (the persist layer's) compose on top.
	var introMu sync.Mutex
	var recentEpochs []core.EpochStats
	var recentQuarantine []core.QuarantineRecord
	if ff.httpAddr != "" {
		cfg.Obs = obs.NewRegistry()
		const keepRecent = 64
		prevEpoch := cfg.OnEpoch
		cfg.OnEpoch = func(es core.EpochStats) {
			introMu.Lock()
			recentEpochs = append(recentEpochs, es)
			if len(recentEpochs) > keepRecent {
				recentEpochs = recentEpochs[len(recentEpochs)-keepRecent:]
			}
			introMu.Unlock()
			prevEpoch(es)
		}
		prevQuar := cfg.OnQuarantine
		cfg.OnQuarantine = func(rec core.QuarantineRecord) {
			introMu.Lock()
			recentQuarantine = append(recentQuarantine, rec)
			if len(recentQuarantine) > keepRecent {
				recentQuarantine = recentQuarantine[len(recentQuarantine)-keepRecent:]
			}
			introMu.Unlock()
			prevQuar(rec)
		}
	}

	// Deterministic fault injection (resilience testing): the chaos-smoke
	// harness runs serve with -inject-every and asserts that every fired
	// fault became a quarantine record or tool-error count, never a death.
	if ff.injectEvery > 0 {
		plan := &faultinject.Plan{Seed: ff.injectSeed, Stages: map[string]faultinject.Spec{}}
		for _, stage := range strings.Split(ff.injectStages, ",") {
			stage = strings.TrimSpace(stage)
			if stage == "" {
				continue
			}
			plan.Stages[stage] = faultinject.Spec{Every: ff.injectEvery, StallFor: ff.injectStall}
		}
		cfg.FaultHook = plan.Hook()
		defer func() {
			p, s, e := plan.Fired()
			fmt.Fprintf(os.Stderr, "faultinject: fired %d panics, %d stalls, %d errors\n", p, s, e)
		}()
	}

	// Durable state: write-ahead findings journal, periodic atomic
	// checkpoints at fold boundaries, quarantine records on disk. With
	// -resume, continue the dead incarnation's schedule from its
	// checkpoint.
	baseTotals := persist.Totals{}
	baseEpoch := 0
	epochsThisRun := 0
	if st := openState(ff); st != nil {
		defer st.Close()
		if cp := st.cp; cp != nil {
			cfg.Seed, cfg.MutateRatio, cfg.StartSeed = cp.Seed, cp.MutateRatio, cp.NextSlot
			baseTotals, baseEpoch = cp.Totals, cp.Epoch
			if cp.Corpus != nil {
				c, err := corpus.FromSnapshot(cp.Corpus)
				if err != nil {
					die(1, "resume: corpus: %v", err)
				}
				cfg.Corpus = c
			}
		}
		cfg.KnownFindings = st.known
		// Write-ahead discipline: a finding hits the fsynced journal
		// before it is streamed anywhere else, so anything the user ever
		// saw survives a crash.
		stream := cfg.OnFinding
		cfg.OnFinding = func(f core.Finding) {
			if err := st.AppendFinding(f); err != nil {
				fmt.Fprintf(os.Stderr, "p4gauntlet: journal: %v\n", err)
			}
			stream(f)
		}
		warn := cfg.OnQuarantine
		cfg.OnQuarantine = func(rec core.QuarantineRecord) {
			warn(rec)
			if err := st.WriteQuarantine(rec); err != nil {
				fmt.Fprintf(os.Stderr, "p4gauntlet: quarantine record: %v\n", err)
			}
		}
		cfg.CheckpointPrograms = ff.checkpointPrograms
		if cfg.CheckpointPrograms <= 0 {
			if ff.epochPrograms > 0 {
				cfg.CheckpointPrograms = ff.epochPrograms
			} else {
				cfg.CheckpointPrograms = 256
			}
		}
		cfg.OnCheckpoint = func(next int64) {
			totals := baseTotals
			s := engine.Stats()
			totals.Add(persist.Totals{
				Programs:        s.Generated,
				Findings:        s.UniqueFindings,
				Duplicates:      s.Duplicates,
				ToolErrors:      s.CompileErrors + s.OracleErrors,
				Quarantined:     s.Quarantined,
				Timeouts:        s.Timeouts,
				UnknownVerdicts: s.UnknownVerdicts,
				Epochs:          epochsThisRun,
			})
			err := st.SaveCheckpoint(&persist.Checkpoint{
				NextSlot:    next,
				Seed:        cfg.Seed,
				MutateRatio: cfg.MutateRatio,
				Corpus:      engine.Corpus().Snapshot(),
				Totals:      totals,
				Epoch:       baseEpoch + epochsThisRun,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "p4gauntlet: checkpoint: %v\n", err)
			}
		}
		// OnEpoch and OnCheckpoint both run on the engine's collector
		// goroutine, so the plain counter is race-free.
		epochStream := cfg.OnEpoch
		cfg.OnEpoch = func(es core.EpochStats) {
			epochsThisRun++
			epochStream(es)
		}
	}

	// SIGTERM (the orchestrator's stop signal) and SIGINT both drain
	// gracefully: cancellation stops the scheduler, the stages wind down,
	// and the corpus/final stats still get written below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if ff.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ff.duration)
		defer cancel()
	}

	engine = core.NewEngine(cfg)

	// Liveness window: the collector folds a round every SyncInterval
	// programs, so a healthy pipeline folds continuously. Five minutes
	// (or four stats intervals, whichever is larger) without fold
	// progress on a running engine reports unhealthy.
	window := 5 * time.Minute
	if w := 4 * ff.statsInterval; w > window {
		window = w
	}
	modeName := "fuzz"
	if ff.serve {
		modeName = "serve"
	}
	started := time.Now()
	// The admin server starts once the engine exists: its Health and
	// Status hooks read it.
	stopAdmin := startAdmin(ff.httpAddr, obs.AdminConfig{
		Metrics: cfg.Obs,
		Health: func() error {
			h := engine.Health()
			if !h.Running {
				return nil
			}
			if since := time.Since(h.LastProgress); since > window {
				return fmt.Errorf("no round-fold progress for %s (%d programs folded)",
					since.Round(time.Second), h.ProgramsFolded)
			}
			return nil
		},
		Status: func() any {
			introMu.Lock()
			eps := append([]core.EpochStats(nil), recentEpochs...)
			qs := append([]core.QuarantineRecord(nil), recentQuarantine...)
			introMu.Unlock()
			return statuszPayload{
				Mode: modeName, PID: os.Getpid(),
				Started: started, Now: time.Now(),
				Health: engine.Health(), Stats: engine.Stats(),
				Epochs: eps, Quarantine: qs,
			}
		},
	})

	// SIGHUP means "checkpoint and flush stats now" — no drain, no pause:
	// the flag is read by the collector at its next fold boundary and the
	// run carries on. Ops can snapshot a multi-day serve at will.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	hupDone := make(chan struct{})
	go func() {
		for {
			select {
			case <-hupDone:
				return
			case <-hup:
				engine.RequestCheckpoint()
				s := engine.Stats()
				jw.write(statsRecord{Stats: s}, "stats")
				fmt.Fprintln(os.Stderr, "SIGHUP: checkpoint requested, stats flushed")
				// One-line human summary on stderr: operators without a
				// JSONL tail get the same signal.
				fmt.Fprintln(os.Stderr, "SIGHUP: "+s.OneLine())
			}
		}
	}()
	tickerDone := make(chan struct{})
	if ff.jsonl != "" && ff.statsInterval > 0 {
		go func() {
			tick := time.NewTicker(ff.statsInterval)
			defer tick.Stop()
			for {
				select {
				case <-tickerDone:
					return
				case <-tick.C:
					jw.write(statsRecord{Stats: engine.Stats()}, "stats")
				}
			}
		}()
	}
	findings := engine.Run(ctx)
	close(hupDone)
	close(tickerDone)
	stats := engine.Stats()
	fmt.Fprintf(human, "\n%s\n", stats.Summary())
	// Final run record: one JSON line with the full stats snapshot
	// (throughput, corpus/admission counters, cache hit rates,
	// simplification/gate-reuse counters, interner growth), so a JSONL
	// stream is self-describing without scraping the human summary.
	jw.write(statsRecord{Stats: stats, Final: true}, "stats")
	// Drain the admin listener after the final records: a scraper racing
	// the shutdown sees either live data or a closed port, never a
	// half-dead server.
	stopAdmin()
	if ff.corpusDir != "" {
		if n, err := engine.Corpus().Save(ff.corpusDir); err != nil {
			fmt.Fprintf(os.Stderr, "p4gauntlet: corpus save: %v\n", err)
		} else {
			fmt.Fprintf(human, "corpus: saved %d seeds to %s\n", n, ff.corpusDir)
		}
	}
	// A drained serve run exits 0: findings were already streamed and a
	// service stopping on SIGTERM is not a failure. Bounded fuzz runs
	// keep the CI contract (nonzero on findings).
	if len(findings) > 0 && !ff.serve {
		os.Exit(1)
	}
}
