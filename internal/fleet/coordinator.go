package fleet

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gauntlet/internal/core"
	"gauntlet/internal/corpus"
	"gauntlet/internal/obs"
	"gauntlet/internal/persist"
)

// CoordinatorConfig parameterizes one fleet campaign.
type CoordinatorConfig struct {
	// Run is pushed verbatim to every worker.
	Run RunConfig
	// StartSeed/Seeds bound the campaign's slot range. Seeds must be > 0:
	// an unbounded fleet campaign has no final lease and therefore no
	// completion point (run successive bounded campaigns instead).
	StartSeed int64
	Seeds     int64
	// LeaseSlots is the lease length — it must be a multiple of the
	// engine's SyncInterval so lease-local round boundaries coincide with
	// global ones (0 = 4 × SyncInterval).
	LeaseSlots int64
	// LeaseTimeout expires an issued lease for re-issue (0 = 2 minutes).
	// Set it above a lease's worst-case wall clock: expiry is never wrong
	// (first result wins, results are deterministic), only wasteful. It
	// also sets the /healthz stall window: with leases outstanding and
	// none released for 5/2 of it, Health reports an error.
	LeaseTimeout time.Duration
	// OnFinding streams each fleet-unique finding in canonical order
	// (after the journal write when State is set).
	OnFinding func(core.Finding)
	// State, when set, makes the coordinator the campaign's single
	// persistence owner: findings journal write-ahead, atomic corpus +
	// watermark checkpoints at lease-release boundaries.
	State *persist.State
	// KnownFindings pre-seeds fleet-wide dedup (the resume path).
	KnownFindings []uint64
	// Resume, when set, is the checkpoint a restarted coordinator
	// continues: leases wholly below its NextSlot are skipped, its corpus
	// is the master corpus deltas fold into, and its totals are the base
	// the lifetime totals of later checkpoints add to. Without it the
	// master corpus starts empty, holding at most
	// corpus.DefaultMaxSeeds seeds.
	Resume *persist.Checkpoint
	// Obs, when set, receives the fleet gauges and per-worker lease
	// latency histograms.
	Obs *obs.Registry
	// Logf, when set, receives coordinator progress lines.
	Logf func(format string, args ...any)
}

// FleetStatus is the /statusz fleet section.
type FleetStatus struct {
	Workers        int64       `json:"workers"`
	LeasesTotal    int64       `json:"leases_total"`
	LeasesReleased int64       `json:"leases_released"`
	LeasesInflight int64       `json:"leases_inflight"`
	LeasesReissued uint64      `json:"leases_reissued"`
	WatermarkSlot  int64       `json:"watermark_slot"`
	Findings       uint64      `json:"findings"`
	Duplicates     uint64      `json:"duplicates"`
	LastRelease    time.Time   `json:"last_release"`
	Totals         ResultStats `json:"totals"`
}

// Coordinator shards one bounded campaign into leases, merges results in
// canonical lease order behind the completed-prefix watermark, and owns
// fleet-wide dedup and persistence. Safe for any number of concurrent
// connection handlers.
type Coordinator struct {
	cfg    CoordinatorConfig
	table  *leaseTable
	corpus *corpus.Corpus

	// releaseMu serializes the pop-and-process of releasable results so
	// lease k's findings are always emitted before lease k+1's.
	releaseMu  sync.Mutex
	dedup      map[uint64]struct{}
	findings   []core.Finding
	duplicates uint64
	totals     ResultStats
	// base is the resumed checkpoint's totals: what earlier incarnations
	// counted.
	base   persist.Totals
	relErr error

	workers     atomic.Int64
	connSeq     atomic.Int64
	lastRelease atomic.Int64 // unix nanos of the last lease release (or start)
	done        chan struct{}
	doneOnce    sync.Once

	leaseLatency func(worker string, d time.Duration)
}

// NewCoordinator validates the configuration and builds the lease table.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Seeds <= 0 {
		return nil, fmt.Errorf("fleet: coordinator requires a bounded seed budget (Seeds > 0)")
	}
	sync := cfg.Run.SyncInterval
	if sync <= 0 {
		sync = core.DefaultSyncInterval
		cfg.Run.SyncInterval = sync
	}
	if cfg.LeaseSlots <= 0 {
		cfg.LeaseSlots = int64(4 * sync)
	}
	if cfg.LeaseSlots%int64(sync) != 0 {
		return nil, fmt.Errorf("fleet: lease slots %d must be a multiple of the sync interval %d (lease round boundaries must coincide with global ones)", cfg.LeaseSlots, sync)
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 2 * time.Minute
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:    cfg,
		corpus: corpus.New(0),
		dedup:  make(map[uint64]struct{}, len(cfg.KnownFindings)),
		done:   make(chan struct{}),
	}
	var watermark int64
	if cp := cfg.Resume; cp != nil {
		watermark, c.base = cp.NextSlot, cp.Totals
		if cp.Corpus != nil {
			var err error
			if c.corpus, err = corpus.FromSnapshot(cp.Corpus); err != nil {
				return nil, fmt.Errorf("fleet: resume: %w", err)
			}
		}
	}
	c.table = newLeaseTable(cfg.StartSeed, cfg.Seeds, cfg.LeaseSlots, watermark)
	for _, fp := range cfg.KnownFindings {
		c.dedup[fp] = struct{}{}
	}
	c.lastRelease.Store(time.Now().UnixNano())
	c.installMetrics()
	if c.table.watermark() >= c.table.total() {
		c.doneOnce.Do(func() { close(c.done) }) // resumed past the end
	}
	return c, nil
}

// installMetrics registers the fleet observability series (satellite of
// the introspection plane): instantaneous gauges via a collector, and an
// eager per-worker lease-latency histogram family.
func (c *Coordinator) installMetrics() {
	reg := c.cfg.Obs
	if reg == nil {
		c.leaseLatency = func(string, time.Duration) {}
		return
	}
	reg.Collect(func(em *obs.Emit) {
		total, released, inflight, reissued := c.table.snapshot()
		em.Gauge("gauntlet_fleet_workers", "Connected fleet workers.", nil, float64(c.workers.Load()))
		em.Gauge("gauntlet_fleet_leases_inflight", "Leases issued and not yet completed.", nil, float64(inflight))
		em.Gauge("gauntlet_fleet_leases_total", "Leases in the campaign partition.", nil, float64(total))
		em.Counter("gauntlet_fleet_leases_released_total", "Leases released past the watermark.", nil, float64(released))
		em.Counter("gauntlet_fleet_leases_reissued_total", "Leases returned to pending by expiry or worker loss.", nil, float64(reissued))
		c.releaseMu.Lock()
		findings, dups := uint64(len(c.findings)), c.duplicates
		c.releaseMu.Unlock()
		em.Counter("gauntlet_fleet_findings_total", "Fleet-unique findings released.", nil, float64(findings))
		em.Counter("gauntlet_fleet_duplicates_total", "Cross-lease duplicate findings suppressed.", nil, float64(dups))
	})
	c.leaseLatency = func(worker string, d time.Duration) {
		reg.Histogram("gauntlet_fleet_lease_latency_seconds",
			"Issue-to-result latency per completed lease.",
			obs.Labels{"worker": worker}).Observe(d)
	}
}

// Done is closed when every lease has been released (campaign complete).
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Findings returns the released fleet-unique findings in canonical order.
func (c *Coordinator) Findings() []core.Finding {
	c.releaseMu.Lock()
	defer c.releaseMu.Unlock()
	return append([]core.Finding(nil), c.findings...)
}

// Corpus returns the master corpus (complete once Done is closed).
func (c *Coordinator) Corpus() *corpus.Corpus { return c.corpus }

// Err returns the first release-path error (journal, checkpoint or delta
// fold failure), if any.
func (c *Coordinator) Err() error {
	c.releaseMu.Lock()
	defer c.releaseMu.Unlock()
	return c.relErr
}

// Status snapshots the /statusz fleet section.
func (c *Coordinator) Status() FleetStatus {
	total, released, inflight, reissued := c.table.snapshot()
	c.releaseMu.Lock()
	findings, dups, totals := uint64(len(c.findings)), c.duplicates, c.totals
	c.releaseMu.Unlock()
	return FleetStatus{
		Workers:        c.workers.Load(),
		LeasesTotal:    total,
		LeasesReleased: released,
		LeasesInflight: inflight,
		LeasesReissued: reissued,
		WatermarkSlot:  c.watermarkSlot(),
		Findings:       findings,
		Duplicates:     dups,
		LastRelease:    time.Unix(0, c.lastRelease.Load()),
		Totals:         totals,
	}
}

// Health is the coordinator liveness probe: an error — /healthz 503 —
// when leases are outstanding and none has released within 5/2 of
// LeaseTimeout. A healthy lease can run up to LeaseTimeout, and so can
// its re-issue after expiry, so a window tied to the timeout never reads
// long leases as a stall.
func (c *Coordinator) Health() error {
	select {
	case <-c.done:
		return nil
	default:
	}
	if since := time.Since(time.Unix(0, c.lastRelease.Load())); since > 5*c.cfg.LeaseTimeout/2 {
		return fmt.Errorf("no lease released for %s (watermark lease %d of %d)",
			since.Round(time.Second), c.table.watermark(), c.table.total())
	}
	return nil
}

// watermarkSlot converts the lease watermark to a slot watermark: every
// slot below it is released (folded, journaled), none above it is.
func (c *Coordinator) watermarkSlot() int64 {
	wm := c.table.watermark()
	if wm >= c.table.total() {
		return c.cfg.StartSeed + c.cfg.Seeds
	}
	return c.cfg.StartSeed + wm*c.cfg.LeaseSlots
}

// background starts the expiry janitor and the context watcher; the
// returned stop function tears both down. Serve and the in-process
// harness both run it.
func (c *Coordinator) background(ctx context.Context) func() {
	jctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-jctx.Done()
		c.table.close()
	}()
	go func() {
		defer wg.Done()
		period := c.cfg.LeaseTimeout / 4
		if period < 10*time.Millisecond {
			period = 10 * time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-jctx.Done():
				return
			case now := <-tick.C:
				if n := c.table.expire(now.Add(-c.cfg.LeaseTimeout)); n > 0 {
					c.cfg.Logf("fleet: re-issued %d expired lease(s)", n)
				}
			}
		}
	}()
	return func() { cancel(); wg.Wait() }
}

// HandleConn speaks the protocol with one worker connection: hello →
// config, then leases and results until drain or connection loss. Any
// lease the connection holds when it dies returns to pending.
func (c *Coordinator) HandleConn(ctx context.Context, conn io.ReadWriteCloser) error {
	defer conn.Close()
	env, err := readMsg(conn)
	if err != nil {
		return fmt.Errorf("fleet: hello: %w", err)
	}
	if env.Type != MsgHello || env.Hello == nil {
		return fmt.Errorf("fleet: expected hello, got %q", env.Type)
	}
	if env.Hello.Proto != ProtoVersion {
		return fmt.Errorf("fleet: worker %q speaks protocol %d, want %d",
			env.Hello.Worker, env.Hello.Proto, ProtoVersion)
	}
	// The holder key is per-connection, not per-name: two workers with
	// the same name must not release each other's leases.
	holder := fmt.Sprintf("%s#%d", env.Hello.Worker, c.connSeq.Add(1))
	c.workers.Add(1)
	defer c.workers.Add(-1)
	defer func() {
		if n := c.table.fail(holder); n > 0 {
			c.cfg.Logf("fleet: worker %s lost, %d lease(s) back to pending", holder, n)
		}
	}()
	if err := writeMsg(conn, &Envelope{Type: MsgConfig, Config: &c.cfg.Run}); err != nil {
		return err
	}
	c.cfg.Logf("fleet: worker %s connected", holder)
	for {
		env, err := readMsg(conn)
		if err != nil {
			select {
			case <-c.done:
				return nil // campaign complete; the teardown races are benign
			default:
			}
			return err
		}
		switch env.Type {
		case MsgNeed:
			lease, ok := c.table.acquire(holder)
			if !ok {
				return writeMsg(conn, &Envelope{Type: MsgDrain})
			}
			if err := writeMsg(conn, &Envelope{Type: MsgLease, Lease: &lease}); err != nil {
				return err
			}
		case MsgResult:
			if env.Result == nil {
				return fmt.Errorf("fleet: result frame without payload")
			}
			if env.Result.Delta == nil {
				// Every lease ships a delta, if only an empty one; a
				// result without one would fold a hole into the corpus.
				return fmt.Errorf("fleet: result frame for lease %d without corpus delta", env.Result.LeaseID)
			}
			accepted, latency := c.completeLease(env.Result)
			if accepted {
				c.leaseLatency(env.Result.Worker, latency)
			}
			c.release()
		default:
			return fmt.Errorf("fleet: unexpected %q from worker", env.Type)
		}
	}
}

// completeLease records a result and measures its issue-to-result
// latency. Duplicates (an expired lease finishing twice) are dropped —
// results are deterministic, so both copies are identical.
func (c *Coordinator) completeLease(res *Result) (bool, time.Duration) {
	c.table.mu.Lock()
	var issuedAt time.Time
	if id := res.LeaseID; id >= 0 && id < c.table.total() {
		issuedAt = c.table.issued[id]
	}
	c.table.mu.Unlock()
	if !c.table.complete(res) {
		return false, 0
	}
	latency := time.Duration(0)
	if !issuedAt.IsZero() {
		latency = time.Since(issuedAt)
	}
	return true, latency
}

// release processes the contiguous run of completed leases at the
// watermark, in lease order: fleet-wide dedup by fingerprint (journal
// write-ahead when persistence is on), finding emission, corpus delta
// fold, and a checkpoint whose NextSlot is the new slot watermark. The
// pop and the processing happen under one mutex so concurrent connection
// handlers cannot reorder lease k+1's findings before lease k's.
func (c *Coordinator) release() {
	c.releaseMu.Lock()
	defer c.releaseMu.Unlock()
	batch := c.table.releasable()
	if len(batch) == 0 {
		return
	}
	for _, res := range batch {
		for _, f := range res.Findings {
			if _, seen := c.dedup[f.Fingerprint]; seen {
				c.duplicates++
				continue
			}
			if c.cfg.State != nil {
				if err := c.cfg.State.AppendFinding(f); err != nil && c.relErr == nil {
					c.relErr = fmt.Errorf("fleet: journal: %w", err)
				}
			}
			c.dedup[f.Fingerprint] = struct{}{}
			c.findings = append(c.findings, f)
			if c.cfg.OnFinding != nil {
				c.cfg.OnFinding(f)
			}
		}
		if err := c.corpus.ApplyDelta(res.Delta); err != nil && c.relErr == nil {
			c.relErr = fmt.Errorf("fleet: corpus delta: %w", err)
		}
		c.totals.Generated += res.Stats.Generated
		c.totals.Crashes += res.Stats.Crashes
		c.totals.InvalidTransforms += res.Stats.InvalidTransforms
		c.totals.Miscompilations += res.Stats.Miscompilations
		c.totals.Mismatches += res.Stats.Mismatches
		c.totals.Duplicates += res.Stats.Duplicates
		c.totals.ToolErrors += res.Stats.ToolErrors
		c.totals.Quarantined += res.Stats.Quarantined
		c.totals.Timeouts += res.Stats.Timeouts
		c.totals.UnknownVerdicts += res.Stats.UnknownVerdicts
		c.totals.ElapsedNs += res.Stats.ElapsedNs
	}
	c.lastRelease.Store(time.Now().UnixNano())
	if c.cfg.State != nil {
		totals := c.base
		totals.Add(persist.Totals{
			Programs:        c.totals.Generated,
			Findings:        uint64(len(c.findings)),
			Duplicates:      c.totals.Duplicates + c.duplicates,
			ToolErrors:      c.totals.ToolErrors,
			Quarantined:     c.totals.Quarantined,
			Timeouts:        c.totals.Timeouts,
			UnknownVerdicts: c.totals.UnknownVerdicts,
		})
		cp := &persist.Checkpoint{
			NextSlot: c.watermarkSlot(),
			Seed:     c.cfg.Run.Seed,
			Corpus:   c.corpus.Snapshot(),
			Totals:   totals,
		}
		if err := c.cfg.State.SaveCheckpoint(cp); err != nil && c.relErr == nil {
			c.relErr = fmt.Errorf("fleet: checkpoint: %w", err)
		}
	}
	c.cfg.Logf("fleet: watermark lease %d/%d (slot %d), %d findings",
		c.table.watermark(), c.table.total(), c.watermarkSlot(), len(c.findings))
	if c.table.watermark() >= c.table.total() {
		c.doneOnce.Do(func() { close(c.done) })
	}
}

// Serve accepts worker connections on ln until the campaign completes or
// ctx is cancelled, then closes the listener. It returns nil on
// completion (release-path errors surface via Err) and the context error
// on cancellation.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	stop := c.background(ctx)
	defer stop()
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed below
			}
			go func() {
				if err := c.HandleConn(ctx, conn); err != nil {
					c.cfg.Logf("fleet: connection: %v", err)
				}
			}()
		}
	}()
	var err error
	select {
	case <-c.done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	ln.Close()
	<-acceptDone
	return err
}
