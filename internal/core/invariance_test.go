package core_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gauntlet/internal/core"
	"gauntlet/internal/corpus"
	"gauntlet/internal/faultinject"
	"gauntlet/internal/fleet"
	"gauntlet/internal/obs"
)

// tally holds the counters that only the schedule decides.
type tally struct {
	Generated, Mutated                                      uint64
	Crashes, InvalidTransforms, Miscompilations, Mismatches uint64
}

// observable renders what a finished campaign shows the outside, the
// output the invariance contract covers:
//   - every finding in report order, with every field except wall-clock
//     provenance and the witness as an FNV-1a hash of its bytes. Detail
//     drops its counterexample values, which depend on the concolic tier:
//     the query tier that answered picks a miscompilation's
//     distinguishing assignment, and test-generation steering picks the
//     failing test case a mismatch's whole Detail describes. Provenance
//     keeps Slot, Origin, Mutations and ReduceSerialCalls; its stage
//     timings, speculative probe counts and query tiers depend on timing,
//     reduction width and cache state;
//   - the final corpus fingerprints and corpus.Stats;
//   - the schedule's tally.
func observable(fs []core.Finding, crp *corpus.Corpus, n tally) string {
	var b strings.Builder
	for _, f := range fs {
		detail, _, _ := strings.Cut(f.Detail, " (counterexample ")
		if f.Kind == core.FindingMismatch {
			detail = ""
		}
		h := fnv.New64a()
		h.Write([]byte(f.Source))
		fmt.Fprintf(&b, "finding %s seed=%d backend=%s pass=%s fingerprint=%016x origin=%s size=%d->%d witness=%016x detail=%q",
			f.Kind, f.Seed, f.Backend, f.Pass, f.Fingerprint, f.Origin, f.SizeBefore, f.SizeAfter, h.Sum64(), detail)
		if p := f.Provenance; p != nil {
			fmt.Fprintf(&b, " provenance slot=%d origin=%s mutations=%v serial-calls=%d",
				p.Slot, p.Origin, p.Mutations, p.ReduceSerialCalls)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "corpus %x\ncorpus stats %+v\ntally %+v\n", crp.Fingerprints(), crp.Stats(), n)
	return b.String()
}

// firstDiff names the first line where two different renderings differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := max(len(w), len(g))
	w, g = append(w, make([]string, n-len(w))...), append(g, make([]string, n-len(g))...)
	i := 0
	for w[i] == g[i] {
		i++
	}
	return fmt.Sprintf("line %d\nwant: %s\ngot:  %s", i+1, w[i], g[i])
}

// campaign fixes everything a run's output may depend on; a row varies
// only what must not show. The first row that runs a campaign is its
// reference.
type campaign struct {
	run      fleet.RunConfig
	slots    int64
	mutate   float64
	blackBox bool
	// perPass is the engine's cap on semantic candidates per failing
	// pass, set through SetReducePerPass (0 = the engine default).
	perPass int
	// faults, when set, is injected into every stage it names, and the
	// campaign's reference is the union of the per-slot baselines of the
	// slots it leaves alone.
	faults *faultinject.Plan
	// want lists the finding kinds the reference run must report, the
	// proof that its defects reach the stages the rows toggle.
	want []core.FindingKind
}

// p4cRun instruments a crash defect that fires on about one program in
// four and a semantic one that miscompiles most of the rest, so both the
// compile stage and the oracle produce findings. (P4C-C-04 would crash
// every program in TypeChecking, and nothing would reach the oracle.)
var p4cRun = fleet.RunConfig{
	Seed: 7, Backend: "v1model", SyncInterval: 8, Reduce: true,
	Defects: []string{"P4C-C-17", "P4C-S-02"},
}

var (
	generation = &campaign{run: p4cRun, slots: 32,
		want: []core.FindingKind{core.FindingCrash, core.FindingMiscompilation}}
	// mutation's 30 slots end in a partial round: the tail round's
	// verdicts bump nothing, since no fold follows, and the run must still
	// drain and release their candidates.
	mutation = &campaign{run: p4cRun, slots: 30, mutate: 0.5,
		want: []core.FindingKind{core.FindingCrash, core.FindingMiscompilation}}
	// capped runs far more miscompilations than its cap of 2 lets
	// through; which candidates the cap keeps is a function of the
	// schedule. (The cap is per lease in a fleet, so no fleet row runs it.)
	capped = &campaign{run: p4cRun, slots: 32, perPass: 2,
		want: []core.FindingKind{core.FindingMiscompilation}}
	// blackBoxTNA is the paper's back-end campaign: the four Tofino
	// defects surface only through packet tests, and mismatch reduction
	// replays each finding's failing test case.
	blackBoxTNA = &campaign{
		run: fleet.RunConfig{Seed: 7, Backend: "tna", SyncInterval: 8, PacketTests: true, Reduce: true,
			Defects: []string{"TOF-S-01", "TOF-C-03", "TOF-C-16", "TOF-S-08"}},
		slots: 16, blackBox: true,
		want: []core.FindingKind{core.FindingMismatch},
	}
	// faulted kills whole units at generate and compile: such a slot
	// contributes nothing, which is what the per-slot union assumes.
	// Reduction is off, so a semantic fingerprint is its slot's own. Plan
	// seed 8 fires panics, errors and one stall there; each stall costs a
	// row the 3 s stage timeout.
	faulted = &campaign{
		run:   fleet.RunConfig{Seed: 7, Backend: "v1model", SyncInterval: 8, Defects: p4cRun.Defects},
		slots: 24,
		faults: &faultinject.Plan{Seed: 8, Stages: map[string]faultinject.Spec{
			"generate": {Every: 7, StallFor: 10 * time.Minute},
			"compile":  {Every: 5, StallFor: 10 * time.Minute},
		}},
		want: []core.FindingKind{core.FindingCrash, core.FindingMiscompilation},
	}
)

// row is one run of a campaign: the settings the contract says must not
// show in its output. A row with fleet > 0 runs fleet.RunLocal with that
// many workers, in leases of one round; workers then sizes each lease
// engine.
type row struct {
	name        string
	workers     int
	epochs      int
	concolicOff bool
	obs         bool
	width       int
	fleet       int
}

// runConfig is c's campaign with r's engine settings, as a fleet
// carries it to its workers.
func (c *campaign) runConfig(r row) fleet.RunConfig {
	run := c.run
	run.EngineWorkers, run.ConcolicOff = r.workers, r.concolicOff
	return run
}

// engineConfig builds c's engine for row r, through the one translation
// every front end uses.
func (c *campaign) engineConfig(t *testing.T, r row) core.EngineConfig {
	t.Helper()
	cfg, err := c.runConfig(r).EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seeds = c.slots
	cfg.MutateRatio = c.mutate
	cfg.BlackBox = c.blackBox
	cfg.EpochPrograms = r.epochs
	cfg.ReduceOpts.Parallelism = r.width
	if r.obs {
		cfg.Obs = obs.NewRegistry()
	}
	if c.faults != nil {
		cfg.FaultHook = c.faults.Hook()
		cfg.StageTimeout = 3 * time.Second // catches the injected stalls, never natural work
	}
	return cfg
}

// runEngine runs row r of c on one engine, checks the Stats accounting
// identities, and returns the findings, the Stats and the observable.
func runEngine(t *testing.T, c *campaign, r row) ([]core.Finding, core.Stats, string) {
	t.Helper()
	cfg := c.engineConfig(t, r)
	var mu sync.Mutex
	quarantined := map[string]uint64{}
	cfg.OnQuarantine = func(q core.QuarantineRecord) {
		mu.Lock()
		quarantined[q.Stage]++
		mu.Unlock()
	}
	streamed := 0
	cfg.OnFinding = func(core.Finding) { streamed++ }
	e := core.NewEngine(cfg)
	if c.perPass > 0 {
		core.SetReducePerPass(e, c.perPass)
	}
	fs := e.Run(context.Background())
	s := e.Stats()
	identities(t, s, cfg.Seeds, quarantined, streamed, len(fs))
	return fs, s, observable(fs, e.Corpus(), tally{s.Generated, s.Mutated,
		s.Crashes, s.InvalidTransforms, s.Miscompilations, s.Mismatches})
}

// identities checks the documented Stats accounting identities of a
// finished bounded run, which leaves nothing in flight.
func identities(t *testing.T, s core.Stats, slots int64, q map[string]uint64, streamed, returned int) {
	t.Helper()
	check := func(ok bool, format string, args ...any) {
		if !ok {
			t.Errorf("identity: "+format, args...)
		}
	}
	check(s.Generated == uint64(slots), "Generated %d != slots %d", s.Generated, slots)
	early := s.Crashes + s.InvalidTransforms + s.CompileErrors + s.Compiled + q["generate"] + q["compile"]
	check(s.Generated == early, "Generated %d != Crashes+InvalidTransforms+CompileErrors+Compiled+early quarantine %d", s.Generated, early)
	late := s.Clean + s.Miscompilations + s.Mismatches + s.OracleErrors + q["oracle"]
	check(s.Compiled == late, "Compiled %d != Clean+Miscompilations+Mismatches+OracleErrors+oracle quarantine %d", s.Compiled, late)
	var records uint64
	for _, n := range q {
		records += n
	}
	check(s.Quarantined == records, "Quarantined %d != %d quarantine records", s.Quarantined, records)
	check(s.UniqueFindings == uint64(returned), "UniqueFindings %d != %d findings returned", s.UniqueFindings, returned)
	check(streamed == returned, "OnFinding saw %d findings, Run returned %d", streamed, returned)
}

// runFleet runs row r of c through a coordinator and r.fleet in-process
// workers, checks the fleet's accounting, and returns the findings and
// the observable. A fleet has no engine Stats, so its rows are never a
// reference.
func runFleet(t *testing.T, c *campaign, r row) ([]core.Finding, core.Stats, string) {
	t.Helper()
	cc := fleet.CoordinatorConfig{Run: c.runConfig(r), Seeds: c.slots, LeaseSlots: int64(c.run.SyncInterval)}
	if r.obs {
		cc.Obs = obs.NewRegistry()
	}
	streamed := 0
	cc.OnFinding = func(core.Finding) { streamed++ }
	coord, err := fleet.NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]fleet.WorkerConfig, r.fleet)
	for i := range workers {
		workers[i].Name = fmt.Sprintf("w%d", i)
	}
	if err := fleet.RunLocal(context.Background(), coord, workers); err != nil {
		t.Fatal(err)
	}
	fs, st := coord.Findings(), coord.Status()
	n := st.Totals
	if n.Generated != uint64(c.slots) || st.LeasesReleased != st.LeasesTotal || st.Findings != uint64(len(fs)) || streamed != len(fs) {
		t.Errorf("fleet accounting: %d of %d slots generated, %d of %d leases released, %d findings counted, %d streamed, %d returned",
			n.Generated, c.slots, st.LeasesReleased, st.LeasesTotal, st.Findings, streamed, len(fs))
	}
	return fs, core.Stats{}, observable(fs, coord.Corpus(), tally{Generated: n.Generated,
		Crashes: n.Crashes, InvalidTransforms: n.InvalidTransforms,
		Miscompilations: n.Miscompilations, Mismatches: n.Mismatches})
}

// live fails unless c's reference run reached every stage its rows
// toggle: findings of each wanted kind, programs through the oracle,
// mutants and energy bumps when the campaign mutates, more candidates
// than a cap keeps, and faulted units when a plan is injected. A faulted
// reference must also find exactly what single-slot runs of the slots
// the plan leaves alone find.
func (c *campaign) live(t *testing.T, fs []core.Finding, s core.Stats) {
	t.Helper()
	for _, kind := range c.want {
		if !slices.ContainsFunc(fs, func(f core.Finding) bool { return f.Kind == kind }) {
			t.Errorf("reference reports no %s finding", kind)
		}
	}
	if s.Compiled == 0 {
		t.Error("reference compiled no program: nothing reached the oracle")
	}
	if c.mutate > 0 && s.Mutated == 0 {
		t.Error("reference mutated no program")
	}
	if c.mutate > 0 && s.Corpus.Bumps == 0 {
		t.Error("reference bumped no seed's energy: no mutant's finding reached a fold")
	}
	if c.perPass > 0 && s.Miscompilations <= uint64(c.perPass) {
		t.Errorf("%d miscompilations never exceed the cap of %d", s.Miscompilations, c.perPass)
	}
	if c.faults == nil {
		return
	}
	if s.Quarantined == 0 {
		t.Error("the plan faulted no unit")
	}
	clean := *c
	clean.faults, clean.slots = nil, 1
	want, got := map[uint64]bool{}, map[uint64]bool{}
	for slot := range c.slots {
		if c.faults.FaultedAnywhere(slot) {
			continue
		}
		cfg := clean.engineConfig(t, row{workers: 1})
		cfg.StartSeed = slot
		for _, f := range core.NewEngine(cfg).Run(context.Background()) {
			want[f.Fingerprint] = true
		}
	}
	for _, f := range fs {
		got[f.Fingerprint] = true
	}
	if !maps.Equal(want, got) {
		t.Errorf("injected run finds %x, the unfaulted slots' baselines %x",
			slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
	}
}

// TestInvarianceMatrix is the invariance contract as one check: nothing
// about concurrency, placement or instrumentation shows in a campaign's
// output. Each row runs a campaign under one combination of toggles, and
// its observable must equal that of the campaign's first row, the
// reference. The generation and mutation rows cover every pair of values
// of workers (1/4), mutation (off/0.5), epoch rotation (off/8 programs),
// the concolic tier (on/off), the metrics registry (off/on) and reduction
// width (1/4) in six runs; the fleet rows run the generation campaign
// through fleet.RunLocal with one and two workers. The capped, black-box
// TNA and fault-plan campaigns keep their own references. Every engine
// run also checks the Stats accounting identities. Campaigns run in
// parallel, their rows in order. Run under -race in CI.
func TestInvarianceMatrix(t *testing.T) {
	for _, cs := range []struct {
		c    *campaign
		name string
		rows []row
	}{
		{generation, "generation", []row{
			{name: "reference", workers: 4, width: 1},
			{name: "w1-epochs-obs", workers: 1, epochs: 8, obs: true, width: 1},
			{name: "w1-concolic-off-obs-width4", workers: 1, concolicOff: true, obs: true, width: 4},
			{name: "fleet1-w2-concolic-off-obs", workers: 2, concolicOff: true, obs: true, fleet: 1},
			{name: "fleet2", workers: 1, fleet: 2},
		}},
		{mutation, "mutation", []row{
			{name: "reference", workers: 4, epochs: 8, obs: true, width: 4},
			{name: "w1-concolic-off", workers: 1, concolicOff: true, width: 1},
			{name: "w4-epochs-concolic-off-width4", workers: 4, epochs: 8, concolicOff: true, width: 4},
		}},
		{capped, "capped", []row{
			{name: "reference", workers: 1, width: 1},
			{name: "w4-width4", workers: 4, width: 4},
		}},
		{blackBoxTNA, "blackbox-tna", []row{
			{name: "reference", workers: 1, width: 1},
			{name: "w2-concolic-off", workers: 2, concolicOff: true, width: 2},
		}},
		{faulted, "faulted", []row{
			{name: "reference", workers: 4, width: 1},
			{name: "w1", workers: 1, width: 1},
		}},
	} {
		t.Run(cs.name, func(t *testing.T) {
			t.Parallel()
			cs.c.check(t, cs.rows)
		})
	}
}

// check runs each row of c as a subtest, in order. The first row is the
// reference and must be live; every later row's observable must equal
// it.
func (c *campaign) check(t *testing.T, rows []row) {
	t.Helper()
	var ref string
	for i, r := range rows {
		ok := t.Run(r.name, func(t *testing.T) {
			run := runEngine
			if r.fleet > 0 {
				run = runFleet
			}
			fs, s, got := run(t, c, r)
			if i == 0 {
				c.live(t, fs, s)
				ref = got
			} else if got != ref {
				t.Errorf("observable differs from the reference at %s\nreference:\n%s", firstDiff(ref, got), ref)
			}
		})
		if !ok && i == 0 {
			return
		}
	}
}

// The matrix varies several toggles per row, so a failing row does not
// say which toggle broke the contract. The four tests below each vary one
// toggle alone against a reference of their own, over the same
// observable.

// TestEngineDeterminism: the engine's worker count alone does not show in
// a generation campaign's output.
func TestEngineDeterminism(t *testing.T) {
	t.Parallel()
	generation.check(t, []row{
		{name: "reference", workers: 1, width: 1},
		{name: "w8", workers: 8, width: 1},
	})
}

// TestObsInvariance: installing the metrics registry changes cost only.
// Eight workers make the instrumented run a race check on the sharded
// instruments under -race.
func TestObsInvariance(t *testing.T) {
	t.Parallel()
	generation.check(t, []row{
		{name: "reference", workers: 8, width: 1},
		{name: "w8-obs", workers: 8, obs: true, width: 1},
	})
}

// TestEngineMutationDeterminism: the worker count alone does not show in
// a mutating campaign's findings, corpus or mutation schedule.
func TestEngineMutationDeterminism(t *testing.T) {
	t.Parallel()
	mutation.check(t, []row{
		{name: "reference", workers: 1, width: 1},
		{name: "w8", workers: 8, width: 1},
	})
}

// TestEngineEpochDeterminism: epoch rotation alone does not show in a
// mutating campaign's output. Rotation replaces the interner, simplify
// and verdict caches wholesale, and a fresh cache must recompute the same
// answers.
func TestEngineEpochDeterminism(t *testing.T) {
	t.Parallel()
	mutation.check(t, []row{
		{name: "reference", workers: 8, width: 1},
		{name: "w8-epochs", workers: 8, epochs: 8, width: 1},
	})
}
