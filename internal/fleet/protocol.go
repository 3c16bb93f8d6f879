// Package fleet scales the single-process fuzzing engine across process
// boundaries without giving up its determinism contract: a coordinator
// shards the master seed stream into bounded, watermarked work leases and
// N workers each run an unmodified core.Engine over their lease, speaking
// a minimal length-prefixed JSON protocol over TCP or unix sockets
// (stdlib only).
//
// The design is the engine's own discipline — isolate first, then share —
// lifted one level: workers share nothing while a lease runs, and every
// cross-process merge happens at one deterministic point, in one
// canonical order. Three facts make the fleet finding set, witness bytes
// and report order identical to the single-process run for a fixed seed
// budget, at any worker count:
//
//  1. Fleet runs are pure-generation (MutateRatio = 0 — the coordinator
//     refuses otherwise), so every slot's program is a pure function of
//     its seed and a lease needs no cross-lease corpus state to replay
//     its slots exactly as the single process would.
//  2. A lease is a contiguous slot range whose length is a multiple of
//     the engine's SyncInterval, so lease-local round boundaries coincide
//     with global ones, and the engine's canonical release order — round
//     r's oracle findings before round r+1's crash findings — makes the
//     concatenation of per-lease report streams, in lease order, equal to
//     the global release sequence.
//  3. The coordinator releases lease results strictly behind the
//     completed-prefix watermark, re-deduplicating by the stable finding
//     fingerprints, so the surviving representative of every fingerprint
//     is the global first occurrence — the same program, and therefore
//     the same reduced witness bytes, the single process keeps. (This
//     holds below the engine's cap of 64 reduced semantic candidates per
//     failing pass: the cap is per lease, so a fleet run reduces
//     candidates a capped single process would have dropped.)
//
// A worker keeps no solver state between leases: each lease runs a fresh
// engine whose smt context and validation cache die with it, so a
// worker's memory is bounded by one lease.
//
// Worker loss, hang or kill -9 is handled by lease expiry and re-issue:
// results are deterministic, so a lease completed twice yields identical
// bytes and first-wins is safe, and the coordinator's write-ahead journal
// (persist.State) absorbs at-least-once replay across coordinator
// restarts the same way single-process resume does.
package fleet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"gauntlet/internal/core"
	"gauntlet/internal/corpus"
)

// ProtoVersion is bumped on any wire-incompatible change; the coordinator
// refuses a worker whose hello disagrees.
const ProtoVersion = 1

// maxMsgBytes bounds one framed message (a result carries printed
// witnesses and a corpus delta; 256 MiB is far above any real lease).
const maxMsgBytes = 256 << 20

// MsgType tags an Envelope.
type MsgType string

// Protocol messages. The conversation is strictly request-response from
// the worker's side: hello → config, then (need → lease | drain)*, with
// one result sent before the next need.
const (
	// MsgHello is the worker's opening message.
	MsgHello MsgType = "hello"
	// MsgConfig is the coordinator's reply: the campaign parameters every
	// worker must run under.
	MsgConfig MsgType = "config"
	// MsgNeed asks for work.
	MsgNeed MsgType = "need"
	// MsgLease grants a slot range.
	MsgLease MsgType = "lease"
	// MsgResult returns a completed lease's findings, corpus delta and
	// stats.
	MsgResult MsgType = "result"
	// MsgDrain tells the worker no further leases will be granted.
	MsgDrain MsgType = "drain"
)

// Envelope is the single wire frame: a type tag plus the one payload the
// type calls for.
type Envelope struct {
	Type   MsgType    `json:"type"`
	Hello  *Hello     `json:"hello,omitempty"`
	Config *RunConfig `json:"config,omitempty"`
	Lease  *Lease     `json:"lease,omitempty"`
	Result *Result    `json:"result,omitempty"`
}

// Hello identifies a connecting worker.
type Hello struct {
	Worker string `json:"worker"`
	Proto  int    `json:"proto"`
}

// RunConfig is the campaign configuration the coordinator pushes to every
// worker: everything a lease-ranged core.EngineConfig needs beyond the
// lease bounds themselves. Mutation is deliberately absent — fleet runs
// are pure-generation (see the package comment).
type RunConfig struct {
	// Seed is the master schedule seed (per-slot generator seeds derive
	// from it exactly as in the single process).
	Seed int64 `json:"seed"`
	// Backend is the generator/pipeline backend name ("v1model" | "tna").
	Backend string `json:"backend"`
	// SyncInterval is the engine's corpus admission round size; lease
	// lengths are multiples of it (0 = engine default).
	SyncInterval int `json:"sync_interval,omitempty"`
	// EngineWorkers sizes each worker engine's per-stage pools
	// (0 = GOMAXPROCS).
	EngineWorkers int `json:"engine_workers,omitempty"`
	// PacketTests / ConcolicOff mirror the EngineConfig fields of the
	// same names.
	PacketTests bool `json:"packet_tests,omitempty"`
	ConcolicOff bool `json:"concolic_off,omitempty"`
	// Reduce enables witness reduction under the engine's default
	// budgets, the ones single-process fuzz and serve runs use.
	Reduce bool `json:"reduce"`
	// StageTimeoutMs / OracleTimeoutMs are the watchdog budgets in
	// milliseconds (0 = off).
	StageTimeoutMs  int64 `json:"stage_timeout_ms,omitempty"`
	OracleTimeoutMs int64 `json:"oracle_timeout_ms,omitempty"`
	// Defects names seeded registry bugs to instrument into the pass
	// pipeline (test and smoke harnesses; empty = reference pipeline).
	Defects []string `json:"defects,omitempty"`
}

// Lease is one contiguous slot range: the unit of work, re-issue and
// corpus merge. ID is the lease's canonical index (Start == campaign
// start + ID × lease length for every lease but possibly the last).
type Lease struct {
	ID    int64 `json:"id"`
	Start int64 `json:"start"`
	Count int64 `json:"count"`
}

// ResultStats is the per-lease engine stats digest the coordinator sums
// for /statusz and for its checkpoints' lifetime totals. The program and
// finding-kind counts depend only on the schedule; the rest are
// observation only.
type ResultStats struct {
	Generated         uint64 `json:"generated"`
	Crashes           uint64 `json:"crashes"`
	InvalidTransforms uint64 `json:"invalid_transforms,omitempty"`
	Miscompilations   uint64 `json:"miscompilations"`
	Mismatches        uint64 `json:"mismatches"`
	Duplicates        uint64 `json:"duplicates"`
	ToolErrors        uint64 `json:"tool_errors"`
	Quarantined       uint64 `json:"quarantined"`
	Timeouts          uint64 `json:"timeouts,omitempty"`
	UnknownVerdicts   uint64 `json:"unknown_verdicts,omitempty"`
	ElapsedNs         int64  `json:"elapsed_ns"`
}

// Result carries one completed lease back: the lease engine's report
// stream in its canonical order, the corpus delta, and the stats digest.
type Result struct {
	LeaseID  int64          `json:"lease_id"`
	Worker   string         `json:"worker"`
	Findings []core.Finding `json:"findings"`
	Delta    *corpus.Delta  `json:"delta"`
	Stats    ResultStats    `json:"stats"`
}

// writeMsg frames env as a 4-byte big-endian length plus JSON. A single
// Write call per frame keeps frames atomic under concurrent writers
// (the worker writes from one goroutine anyway; the coordinator writes
// per-connection from that connection's handler).
func writeMsg(w io.Writer, env *Envelope) error {
	body, err := json.Marshal(env)
	if err != nil {
		return err
	}
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[4:], body)
	_, err = w.Write(frame)
	return err
}

// readMsg reads one length-prefixed frame and decodes it. The body is
// read as it arrives, not into a buffer of the declared length, so a
// peer that declares a large frame and then stalls or hangs up holds
// only the bytes it actually sent.
func readMsg(r io.Reader) (*Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxMsgBytes {
		return nil, fmt.Errorf("fleet: frame length %d out of range", n)
	}
	body, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, err
	}
	if len(body) < int(n) {
		return nil, fmt.Errorf("fleet: frame body: %d of %d bytes: %w", len(body), n, io.ErrUnexpectedEOF)
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("fleet: decode frame: %w", err)
	}
	return &env, nil
}
