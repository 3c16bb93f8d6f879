package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"gauntlet/internal/core"
	"gauntlet/internal/fleet"
	"gauntlet/internal/obs"
	"gauntlet/internal/persist"
)

// runConfig translates the campaign flags that fuzz, serve and
// coordinator modes share into the fleet's wire config, whose
// EngineConfig method turns it into an engine configuration in every
// mode.
func runConfig(ff fuzzFlags) fleet.RunConfig {
	return fleet.RunConfig{
		Seed:            ff.seed,
		Backend:         ff.backend,
		EngineWorkers:   ff.workers,
		PacketTests:     ff.packets,
		ConcolicOff:     !ff.concolic,
		Reduce:          ff.reduce,
		StageTimeoutMs:  ff.stageTimeout.Milliseconds(),
		OracleTimeoutMs: ff.oracleTimeout.Milliseconds(),
		Defects:         splitDefects(ff.defects),
	}
}

func splitDefects(list string) []string {
	var out []string
	for _, id := range strings.Split(list, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, id)
		}
	}
	return out
}

// engineConfig builds fuzz and serve mode's engine configuration. The
// campaign settings go through the fleet's translation, the one every
// lease starts from; the single process adds its slot range, mutation
// and epochs.
func engineConfig(ff fuzzFlags) (core.EngineConfig, error) {
	cfg, err := runConfig(ff).EngineConfig()
	if err != nil {
		return cfg, err
	}
	cfg.StartSeed = ff.start
	cfg.Seeds = ff.seeds
	cfg.MutateRatio = ff.mutateRatio
	cfg.EpochPrograms = ff.epochPrograms
	return cfg, nil
}

// campaignState is an open -state directory and, with -resume, what the
// dead incarnation left in it.
type campaignState struct {
	*persist.State
	// cp is the last checkpoint (nil when the dead run never took one).
	cp *persist.Checkpoint
	// known holds the journaled findings' fingerprints, which pre-seed
	// dedup so reprocessed slots are never re-reported.
	known []uint64
}

// openState opens the -state or -resume directory; nil without either.
// With -resume it also loads the checkpoint, refusing an explicit
// -seed or -mutate-ratio that contradicts it (the corpus and watermark
// are functions of the schedule), and replays the journal.
func openState(ff fuzzFlags) *campaignState {
	dir := ff.stateDir
	if ff.resumeDir != "" {
		if dir != "" && dir != ff.resumeDir {
			die(2, "-state and -resume point at different directories")
		}
		dir = ff.resumeDir
	}
	if dir == "" {
		return nil
	}
	st, err := persist.Open(dir)
	if err != nil {
		die(1, "state: %v", err)
	}
	cs := &campaignState{State: st}
	if ff.resumeDir == "" {
		return cs
	}
	if cs.cp, err = st.LoadCheckpoint(); err != nil {
		die(1, "resume: %v", err)
	}
	next := ff.start
	if cp := cs.cp; cp != nil {
		if ff.explicit["seed"] && ff.seed != cp.Seed {
			die(2, "resume: -seed %d contradicts checkpoint seed %d", ff.seed, cp.Seed)
		}
		if ff.explicit["mutate-ratio"] && ff.mutateRatio != cp.MutateRatio {
			die(2, "resume: -mutate-ratio %g contradicts checkpoint %g", ff.mutateRatio, cp.MutateRatio)
		}
		next = cp.NextSlot
	}
	known, n, err := st.KnownFindings()
	if err != nil {
		die(1, "resume: journal: %v", err)
	}
	cs.known = known
	fmt.Fprintf(os.Stderr, "resume: watermark slot %d, %d journaled findings pre-seeding dedup\n", next, n)
	return cs
}

// startAdmin serves the admin plane on addr ("" = none) and returns the
// function that drains it. Binding eagerly means a bad -http address
// fails the run at startup, not at first scrape.
func startAdmin(addr string, cfg obs.AdminConfig) (stop func()) {
	if addr == "" {
		return func() {}
	}
	admin, err := obs.StartAdmin(addr, cfg)
	if err != nil {
		die(1, "%v", err)
	}
	fmt.Fprintf(os.Stderr, "admin: serving /metrics /statusz /healthz /debug/pprof on http://%s\n", admin.Addr())
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := admin.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "p4gauntlet: admin shutdown: %v\n", err)
		}
	}
}
