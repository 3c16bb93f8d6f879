package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"gauntlet/internal/bugs"
	"gauntlet/internal/core"
	"gauntlet/internal/faultinject"
	"gauntlet/internal/generator"
)

// ErrSevered is returned by RunWorker when an injected link fault closed
// the connection (the chaos harness's expected outcome, not a bug).
var ErrSevered = errors.New("fleet: link severed by fault injection")

// WorkerConfig parameterizes one worker process (or goroutine).
type WorkerConfig struct {
	// Name identifies the worker in logs and the per-worker lease-latency
	// series ("" = "worker").
	Name string
	// LinkFault, when set, is consulted after each lease completes and
	// before its result is sent — the deterministic fleet-link
	// fault-injection point (faultinject.LinkPlan.Hook). Delay sleeps,
	// Drop swallows the result, Sever closes the connection.
	LinkFault func(lease int64) faultinject.LinkFault
	// Logf, when set, receives worker progress lines.
	Logf func(format string, args ...any)
}

// EngineConfig translates the campaign settings into an engine
// configuration. It is the only such translation: every lease starts
// from it, and so do single-process fuzz and serve runs, which then add
// what only one process has (mutation, epochs, a loaded corpus,
// callbacks). The pipeline is the backend's reference pipeline with
// Defects instrumented; an unknown backend or defect, or a defect the
// pipeline has no pass for, is an error.
func (run RunConfig) EngineConfig() (core.EngineConfig, error) {
	cfg := core.DefaultEngineConfig()
	cfg.Seed = run.Seed
	cfg.SyncInterval = run.SyncInterval
	cfg.Workers = run.EngineWorkers
	cfg.PacketTests = run.PacketTests
	cfg.ConcolicOff = run.ConcolicOff
	cfg.Reduce = run.Reduce
	cfg.StageTimeout = time.Duration(run.StageTimeoutMs) * time.Millisecond
	cfg.OracleTimeout = time.Duration(run.OracleTimeoutMs) * time.Millisecond
	var err error
	if cfg.Backend, err = generator.ParseBackend(run.Backend); err != nil {
		return cfg, err
	}
	var active []*bugs.Bug
	if len(run.Defects) > 0 {
		reg := bugs.Load()
		for _, id := range run.Defects {
			b := reg.ByID(id)
			if b == nil {
				return cfg, fmt.Errorf("defect registry has no bug %q", id)
			}
			active = append(active, b)
		}
	}
	cfg.Passes, err = core.Pipeline(core.PlatformOf(cfg.Backend), active...)
	return cfg, err
}

// engineConfigForLease builds the lease-ranged engine configuration: the
// existing engine, unchanged, over [lease.Start, lease.Start+lease.Count).
// The engine brings its own corpus, context and validation cache, one
// epoch that dies with it, so nothing a lease builds outlives the lease.
// MutateRatio stays zero — fleet runs are pure-generation, which is what
// makes a lease replayable without cross-lease corpus state.
func engineConfigForLease(run *RunConfig, lease Lease) (core.EngineConfig, error) {
	cfg, err := run.EngineConfig()
	if err != nil {
		return cfg, fmt.Errorf("fleet: %w", err)
	}
	cfg.StartSeed = lease.Start
	cfg.Seeds = lease.Count
	return cfg, nil
}

// runLease executes one lease with a fresh engine and packages the
// result: the engine's report stream in its canonical order and a stats
// digest.
func runLease(ctx context.Context, run *RunConfig, lease Lease) (*Result, error) {
	cfg, err := engineConfigForLease(run, lease)
	if err != nil {
		return nil, err
	}
	e := core.NewEngine(cfg)
	findings := e.Run(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err // cancelled mid-lease: never ship a partial result
	}
	s := e.Stats()
	return &Result{
		LeaseID:  lease.ID,
		Findings: findings,
		Stats: ResultStats{
			Generated:         s.Generated,
			Crashes:           s.Crashes,
			InvalidTransforms: s.InvalidTransforms,
			Miscompilations:   s.Miscompilations,
			Mismatches:        s.Mismatches,
			Duplicates:        s.Duplicates,
			ToolErrors:        s.CompileErrors + s.OracleErrors,
			Quarantined:       s.Quarantined,
			Timeouts:          s.Timeouts,
			UnknownVerdicts:   s.UnknownVerdicts,
			ElapsedNs:         s.Elapsed.Nanoseconds(),
		},
	}, nil
}

// RunWorker speaks the worker side of the protocol over conn: hello,
// config, then lease-run-result until the coordinator drains. Each lease
// runs a fresh engine with its own smt context and validation cache, and
// the worker keeps no solver state between leases, so its memory is
// bounded by one lease. Returns nil on a clean drain.
func RunWorker(ctx context.Context, conn io.ReadWriteCloser, wcfg WorkerConfig) error {
	defer conn.Close()
	if wcfg.Name == "" {
		wcfg.Name = "worker"
	}
	logf := wcfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// Unblock the protocol reads when ctx dies: the engine run is
	// ctx-aware, but readMsg is not.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	if err := writeMsg(conn, &Envelope{Type: MsgHello, Hello: &Hello{Worker: wcfg.Name, Proto: ProtoVersion}}); err != nil {
		return err
	}
	env, err := readMsg(conn)
	if err != nil {
		return fmt.Errorf("fleet: config: %w", err)
	}
	if env.Type != MsgConfig || env.Config == nil {
		return fmt.Errorf("fleet: expected config, got %q", env.Type)
	}
	run := env.Config
	for {
		if err := writeMsg(conn, &Envelope{Type: MsgNeed}); err != nil {
			return err
		}
		env, err := readMsg(conn)
		if err != nil {
			return err
		}
		switch env.Type {
		case MsgDrain:
			logf("fleet: %s drained", wcfg.Name)
			return nil
		case MsgLease:
			if env.Lease == nil {
				return fmt.Errorf("fleet: lease frame without payload")
			}
			lease := *env.Lease
			logf("fleet: %s running lease %d [%d, %d)", wcfg.Name, lease.ID, lease.Start, lease.Start+lease.Count)
			res, err := runLease(ctx, run, lease)
			if err != nil {
				return err
			}
			if wcfg.LinkFault != nil {
				f := wcfg.LinkFault(lease.ID)
				if f.Delay > 0 {
					t := time.NewTimer(f.Delay)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return ctx.Err()
					}
					t.Stop()
				}
				if f.Drop {
					logf("fleet: %s dropping result for lease %d (injected)", wcfg.Name, lease.ID)
					if f.Sever {
						return ErrSevered
					}
					continue
				}
				if f.Sever {
					logf("fleet: %s severing link after lease %d (injected)", wcfg.Name, lease.ID)
					return ErrSevered
				}
			}
			if err := writeMsg(conn, &Envelope{Type: MsgResult, Result: res}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fleet: unexpected %q from coordinator", env.Type)
		}
	}
}
