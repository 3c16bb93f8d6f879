package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/fleet"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/types"
)

func mustParse(t *testing.T, args ...string) fuzzFlags {
	t.Helper()
	_, ff, _, err := parseFlags(args)
	if err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return ff
}

// workerConfig is the engine configuration a fleet worker builds from
// the RunConfig the coordinator sends it.
func workerConfig(ff fuzzFlags) (core.EngineConfig, error) {
	run, err := fleetRunConfig(ff)
	if err != nil {
		return core.EngineConfig{}, err
	}
	wire, err := json.Marshal(run)
	if err != nil {
		return core.EngineConfig{}, err
	}
	var got fleet.RunConfig
	if err := json.Unmarshal(wire, &got); err != nil {
		return core.EngineConfig{}, err
	}
	return got.EngineConfig()
}

// fleetCarried renders every engine setting a fleet campaign carries to
// its workers; passes show as name and Go type, so an instrumented pass
// differs from a clean one.
func fleetCarried(cfg core.EngineConfig) string {
	sync := cfg.SyncInterval
	if sync == 0 {
		sync = core.DefaultSyncInterval
	}
	s := fmt.Sprintf("seed=%d backend=%s sync=%d packets=%v blackbox=%v concolic-off=%v conflicts=%d reduce=%v rounds=%d calls=%d per-pass=%d stage=%v oracle=%v\n",
		cfg.Seed, cfg.Backend, sync, cfg.PacketTests, cfg.BlackBox, cfg.ConcolicOff, cfg.MaxConflicts,
		cfg.Reduce, cfg.ReduceOpts.MaxRounds, cfg.ReduceOpts.MaxPredicateCalls, cfg.MaxReducePerPass,
		cfg.StageTimeout, cfg.OracleTimeout)
	for _, p := range cfg.Passes {
		s += fmt.Sprintf("%s %T\n", p.Name(), p)
	}
	return s
}

// The single-process baseline and the fleet campaign of
// scripts/fleet_smoke.sh must build the same engine settings, or its
// byte-for-byte comparison of their findings would compare two
// different campaigns.
func TestFuzzAndFleetEngineConfigsAgree(t *testing.T) {
	const defects = "P4C-C-17,P4C-C-13,P4C-S-02"
	base := mustParse(t, "-mode", "fuzz", "-seeds", "512", "-seed", "11", "-mutate-ratio", "0",
		"-defects", defects, "-jsonl", "base.jsonl")
	coord := mustParse(t, "-mode", "coordinator", "-listen", "fleet.sock", "-seeds", "512", "-seed", "11",
		"-lease-slots", "64", "-workers", "2", "-defects", defects, "-state", "state",
		"-http", "127.0.0.1:0", "-jsonl", "fleet1.jsonl")
	fuzzCfg, err := engineConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	workerCfg, err := workerConfig(coord)
	if err != nil {
		t.Fatal(err)
	}
	got, want := fleetCarried(fuzzCfg), fleetCarried(workerCfg)
	if got != want {
		t.Errorf("fuzz mode builds\n%s\na fleet worker builds\n%s", got, want)
	}
	if n := strings.Count(got, "bugs.buggyPass"); n != 3 {
		t.Errorf("%d instrumented passes, want one per defect:\n%s", n, got)
	}
}

// A back-end defect must be instrumented into the back-end pass it
// patches, in fuzz mode and in a fleet lease alike, and refused on a
// backend whose pipeline lacks that pass.
func TestDefectsInstrumentBackEnd(t *testing.T) {
	bug := bugs.Load().ByID("TOF-C-03")
	prog, err := parser.Parse(bug.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if err := types.Check(prog); err != nil {
		t.Fatal(err)
	}
	args := []string{"-backend", "tna", "-defects", "TOF-C-03"}
	fuzzCfg, err := engineConfig(mustParse(t, append([]string{"-mode", "fuzz"}, args...)...))
	if err != nil {
		t.Fatal(err)
	}
	coord := mustParse(t, append([]string{"-mode", "coordinator"}, args...)...)
	workerCfg, err := workerConfig(coord)
	if err != nil {
		t.Fatal(err)
	}
	for mode, cfg := range map[string]core.EngineConfig{"fuzz": fuzzCfg, "fleet lease": workerCfg} {
		_, err := compiler.New(cfg.Passes...).Compile(prog)
		var crash *compiler.CrashError
		if !errors.As(err, &crash) || crash.Pass != "TofinoPredication" {
			t.Errorf("%s: compiling the TOF-C-03 witness = %v, want a crash in TofinoPredication", mode, err)
		}
	}

	v1 := []string{"-backend", "v1model", "-defects", "TOF-C-03"}
	if _, err := engineConfig(mustParse(t, append([]string{"-mode", "fuzz"}, v1...)...)); err == nil {
		t.Error("fuzz mode accepted a Tofino defect on the v1model pipeline")
	}
	if _, err := fleetRunConfig(mustParse(t, append([]string{"-mode", "coordinator"}, v1...)...)); err == nil {
		t.Error("coordinator mode accepted a Tofino defect on the v1model pipeline")
	}
}
