package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gauntlet/internal/core"
	"gauntlet/internal/corpus"
	"gauntlet/internal/fleet"
	"gauntlet/internal/obs"
)

// fleetFlags carries the coordinator/worker-specific flags; the shared
// campaign parameters ride in fuzzFlags.
type fleetFlags struct {
	listen       string
	connect      string
	forkWorkers  int
	leaseSlots   int64
	leaseTimeout time.Duration
	workerName   string
}

// listenAddr splits ADDR into a network: an address containing a path
// separator is a unix socket, anything else TCP — fleet campaigns on one
// box use sockets, cross-box ones host:port, with no extra flag.
func listenAddr(addr string) (network, address string) {
	if strings.Contains(addr, "/") {
		return "unix", addr
	}
	return "tcp", addr
}

// logf prints a fleet progress line on stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// fleetStatusz is the coordinator's /statusz document.
type fleetStatusz struct {
	Mode    string            `json:"mode"`
	PID     int               `json:"pid"`
	Started time.Time         `json:"started"`
	Now     time.Time         `json:"now"`
	Fleet   fleet.FleetStatus `json:"fleet"`
	Corpus  corpus.Stats      `json:"corpus"`
}

// fleetRunConfig is runConfig for coordinator mode. Fleet campaigns are
// pure-generation by construction (lease replay must not depend on
// cross-lease corpus state), so an explicit -mutate-ratio > 0 is refused
// rather than silently ignored.
func fleetRunConfig(ff fuzzFlags) (fleet.RunConfig, error) {
	if ff.explicit["mutate-ratio"] && ff.mutateRatio > 0 {
		return fleet.RunConfig{}, fmt.Errorf("-mutate-ratio %g is incompatible with fleet mode: leases replay as pure functions of their seeds, which mutation's cross-lease corpus dependence breaks", ff.mutateRatio)
	}
	if ff.epochPrograms > 0 {
		return fleet.RunConfig{}, fmt.Errorf("-epoch-programs is incompatible with fleet mode: workers run one bounded engine per lease, so memory is bounded by the lease length instead")
	}
	run := runConfig(ff)
	// Translate once here, as every worker will: a bad backend or defect
	// list fails the coordinator at startup, not first on a worker.
	if _, err := run.EngineConfig(); err != nil {
		return fleet.RunConfig{}, err
	}
	return run, nil
}

// coordinatorMain runs the fleet coordinator: shard the seed budget into
// leases, serve them to workers, merge results in canonical order, own
// the journal/checkpoint, optionally fork a local worker fleet.
func coordinatorMain(ff fuzzFlags, fl fleetFlags) {
	if fl.listen == "" {
		die(2, "coordinator mode requires -listen ADDR (host:port or a socket path)")
	}
	if ff.seeds <= 0 {
		die(2, "coordinator mode requires a bounded -seeds budget")
	}
	run, err := fleetRunConfig(ff)
	if err != nil {
		die(2, "%v", err)
	}

	cfg := fleet.CoordinatorConfig{
		Run:          run,
		StartSeed:    ff.start,
		Seeds:        ff.seeds,
		LeaseSlots:   fl.leaseSlots,
		LeaseTimeout: fl.leaseTimeout,
		Logf:         logf,
	}

	// Durable state and resume, the serve-mode discipline with the
	// coordinator as the single persistence owner: journal write-ahead
	// happens inside the release path, so only resume restoration lives
	// here.
	if st := openState(ff); st != nil {
		defer st.Close()
		cfg.State = st.State
		if cp := st.cp; cp != nil {
			cfg.Run.Seed, cfg.Resume = cp.Seed, cp
		}
		cfg.KnownFindings = st.known
	}

	// Findings stream as in fuzz mode, with the coordinator as the single
	// emitter and the human line on stderr.
	jw, closeJSONL := openJSONL(ff.jsonl, nil)
	defer closeJSONL()
	cfg.OnFinding = func(f core.Finding) { reportFinding(os.Stderr, jw, f) }

	if ff.httpAddr != "" {
		cfg.Obs = obs.NewRegistry()
	}
	coord, err := fleet.NewCoordinator(cfg)
	if err != nil {
		die(2, "%v", err)
	}
	started := time.Now()
	stopAdmin := startAdmin(ff.httpAddr, obs.AdminConfig{
		Metrics: cfg.Obs,
		Health:  coord.Health,
		Status: func() any {
			return fleetStatusz{
				Mode: "coordinator", PID: os.Getpid(),
				Started: started, Now: time.Now(),
				Fleet: coord.Status(), Corpus: coord.Corpus().Stats(),
			}
		},
	})

	network, address := listenAddr(fl.listen)
	if network == "unix" {
		os.Remove(address) // a stale socket from a killed coordinator
	}
	ln, err := net.Listen(network, address)
	if err != nil {
		die(2, "listen: %v", err)
	}
	if network == "unix" {
		defer os.Remove(address)
	}
	fmt.Fprintf(os.Stderr, "fleet: coordinator listening on %s://%s (%d seeds, %d-slot leases)\n",
		network, address, ff.seeds, cfg.LeaseSlots)

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	// -fleet N forks N worker processes of this binary against our own
	// socket: one-command local scale-out. The workers draw all campaign
	// configuration over the wire, so the only flags they need are the
	// address and a name.
	var forked []*exec.Cmd
	if fl.forkWorkers > 0 {
		self, err := os.Executable()
		if err != nil {
			die(2, "fork workers: %v", err)
		}
		for i := 0; i < fl.forkWorkers; i++ {
			cmd := exec.CommandContext(ctx, self,
				"-mode", "worker",
				"-connect", fl.listen,
				"-worker-name", fmt.Sprintf("w%d", i))
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				die(2, "fork worker %d: %v", i, err)
			}
			forked = append(forked, cmd)
		}
		fmt.Fprintf(os.Stderr, "fleet: forked %d local workers\n", fl.forkWorkers)
	}

	serveErr := coord.Serve(ctx, ln)
	for _, cmd := range forked {
		cmd.Wait() // drained workers exit on their own; reap them
	}
	stopAdmin()
	if serveErr != nil {
		die(1, "fleet: %v", serveErr)
	}
	if err := coord.Err(); err != nil {
		die(1, "fleet: %v", err)
	}
	findings := coord.Findings()
	st := coord.Status()
	fmt.Fprintf(os.Stderr, "fleet: campaign complete: %d programs, %d findings (%d cross-lease duplicates suppressed), %d leases (%d re-issued)\n",
		st.Totals.Generated, len(findings), st.Duplicates, st.LeasesTotal, st.LeasesReissued)
	if len(findings) > 0 {
		os.Exit(1) // the bounded-campaign CI contract, as in fuzz mode
	}
}

// workerMain dials the coordinator (retrying while it boots) and runs
// leases until drained. Campaign configuration arrives over the wire.
func workerMain(fl fleetFlags) {
	if fl.connect == "" {
		fmt.Fprintln(os.Stderr, "p4gauntlet: worker mode requires -connect ADDR")
		os.Exit(2)
	}
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	network, address := listenAddr(fl.connect)
	var conn net.Conn
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err = net.Dial(network, address)
		if err == nil {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "p4gauntlet: worker: dial %s: %v\n", fl.connect, err)
			os.Exit(1)
		}
		time.Sleep(100 * time.Millisecond)
	}
	name := fl.workerName
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	wcfg := fleet.WorkerConfig{Name: name, Logf: logf}
	if err := fleet.RunWorker(ctx, conn, wcfg); err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "p4gauntlet: worker: %v\n", err)
		os.Exit(1)
	}
}
