package corpus

import (
	"fmt"

	"gauntlet/internal/coverage"
	"gauntlet/internal/p4/parser"
)

// DeltaSeed is one shard-locally admitted program in admission order: the
// printed source plus the profile facts (edge set, statement count) the
// master admission gate needs to re-judge it. Admission-time metrics
// (fresh-edge count, energy) are deliberately absent — they are functions
// of the fold position, and the master recomputes them against its own
// edge set, which is what makes a locally over-admitted candidate fold
// into a correct global rejection.
type DeltaSeed struct {
	Source string   `json:"source"`
	Edges  []uint64 `json:"edges"`
	Stmts  int      `json:"stmts"`
}

// Delta is one shard's corpus contribution over a lease: everything the
// shard observed (coverage fingerprints, AST-profile fingerprints, its
// local rejection count) plus the programs its local gate admitted, in
// canonical slot order. A shard's local edge set at slot s is a subset of
// the global edge set at s in the canonical fold, so local admission is a
// superset of global admission — replaying Seeds through the master gate
// in (lease, slot) order reproduces the single-process corpus exactly,
// and the set fields union in any order.
type Delta struct {
	Fps     []uint64 `json:"fps"`
	ASTSeen []uint64 `json:"ast_seen"`
	// Rejected is the shard's local rejection count. Master-side re-folds
	// add their own rejections (locally admitted, globally stale), and
	// every globally rejected program is counted by exactly one of the
	// two, so the merged counter equals the single-process one.
	Rejected uint64      `json:"rejected"`
	Seeds    []DeltaSeed `json:"seeds"`
}

// EnableDeltaLog makes the corpus record every admission as a DeltaSeed,
// in admission order, for ExportDelta. Fleet workers enable it on the
// fresh per-lease corpus; the log captures admission-time state, so seeds
// later displaced by eviction still ship in the delta (the master applies
// its own eviction policy during the re-fold).
func (c *Corpus) EnableDeltaLog() {
	c.mu.Lock()
	c.logDelta = true
	c.mu.Unlock()
}

// ExportDelta snapshots the shard's contribution: the observed
// fingerprint sets, the local rejection count and the admission log.
// Call it after the lease's last fold; the corpus is not reset.
func (c *Corpus) ExportDelta() *Delta {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Delta{
		Fps:      sortedKeys(c.fps),
		ASTSeen:  sortedKeys(c.astSeen),
		Rejected: c.rejected,
		Seeds:    append([]DeltaSeed(nil), c.deltaLog...),
	}
}

// ApplyDelta folds one shard delta into the master corpus: candidate
// seeds replay through the normal admission gate in their recorded order,
// then the observed-fingerprint sets union in. A seed whose source no
// longer parses is an error, not a skip — deltas are machine-written, so
// damage means corruption, and a silently thinned fold would diverge
// without a trace.
func (c *Corpus) ApplyDelta(d *Delta) error {
	for i, ds := range d.Seeds {
		prog, err := parser.Parse(ds.Source)
		if err != nil {
			return fmt.Errorf("corpus delta seed %d: %w", i, err)
		}
		c.Add(prog, coverage.FromEdges(ds.Edges, ds.Stmts))
	}
	c.mu.Lock()
	for _, fp := range d.Fps {
		c.fps[fp] = struct{}{}
	}
	for _, fp := range d.ASTSeen {
		c.astSeen[fp] = struct{}{}
	}
	c.rejected += d.Rejected
	c.mu.Unlock()
	return nil
}
