package corpus_test

import (
	"fmt"
	"math/rand"
	"testing"

	"gauntlet/internal/corpus"
	"gauntlet/internal/coverage"
	"gauntlet/internal/generator"
	"gauntlet/internal/inorder"
	"gauntlet/internal/p4/ast"
)

// shardInput is one slot's generated program and profile, precomputed so
// every fold in the test replays identical inputs.
type shardInput struct {
	prog *ast.Program
	prof *coverage.Profile
}

func makeInputs(n int) []shardInput {
	out := make([]shardInput, n)
	for i := range out {
		prog := generator.Generate(generator.DefaultConfig(int64(i)))
		out[i] = shardInput{prog: prog, prof: coverage.OfProgram(prog)}
	}
	return out
}

// fold replays inputs through a corpus the way a fleet worker's engine
// does: record the program's AST fingerprint, then offer it for
// admission.
func fold(c *corpus.Corpus, inputs []shardInput) {
	for _, in := range inputs {
		c.RecordProgram(in.prof.Fingerprint())
		c.Add(in.prog, in.prof)
	}
}

// shardDeltas partitions inputs into contiguous leases of leaseLen and
// folds each on a fresh delta-logging shard corpus, the fleet worker
// shape: every lease starts cold, over-admits relative to the global edge
// set, and ships its admission log.
func shardDeltas(inputs []shardInput, leaseLen, maxSeeds int) []*corpus.Delta {
	var out []*corpus.Delta
	for start := 0; start < len(inputs); start += leaseLen {
		end := start + leaseLen
		if end > len(inputs) {
			end = len(inputs)
		}
		shard := corpus.New(maxSeeds)
		shard.EnableDeltaLog()
		fold(shard, inputs[start:end])
		out = append(out, shard.ExportDelta())
	}
	return out
}

func corpusKey(c *corpus.Corpus) string {
	return fmt.Sprintf("fps=%v stats=%+v", c.Fingerprints(), c.Stats())
}

// mergeInOrder is the fleet coordinator's merge: deltas arrive in any
// order, possibly more than once, through an in-order buffer starting at
// lease next, and fold into target with ApplyDelta in lease order.
func mergeInOrder(t *testing.T, target *corpus.Corpus, next int64, arrivals []int, deltas []*corpus.Delta) {
	t.Helper()
	buf := inorder.New[*corpus.Delta](next)
	for _, lease := range arrivals {
		buf.Put(int64(lease), deltas[lease])
		for d, ok := buf.Pop(); ok; d, ok = buf.Pop() {
			if err := target.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	if buf.Next() != int64(len(deltas)) {
		t.Fatalf("arrivals %v: %d of %d leases folded", arrivals, buf.Next(), len(deltas))
	}
}

// TestDeltaMergeMatchesSingleFold: applying shard deltas in lease order
// must reproduce the single-process corpus exactly — seed set,
// fingerprints, and every lifetime counter including rejections — for
// any arrival order, with duplicated deliveries (at-least-once replay),
// and after a resume that starts the merge from a checkpointed corpus.
// This is the fleet merge's correctness property: arrival order cannot
// change the merged corpus.
func TestDeltaMergeMatchesSingleFold(t *testing.T) {
	const n, leaseLen, maxSeeds = 96, 12, 6
	inputs := makeInputs(n)

	ref := corpus.New(maxSeeds)
	fold(ref, inputs)
	want := corpusKey(ref)
	if ref.Stats().Rejected == 0 || ref.Stats().Evicted == 0 {
		t.Fatalf("weak reference fold (stats %+v): the test needs rejections and evictions to be meaningful", ref.Stats())
	}

	deltas := shardDeltas(inputs, leaseLen, maxSeeds)
	if len(deltas) < 4 {
		t.Fatalf("only %d leases; need several to permute", len(deltas))
	}

	// A worker's local gate must over-admit, never under-admit: its edge
	// set at any slot is a subset of the global fold's.
	var shipped int
	for _, d := range deltas {
		shipped += len(d.Seeds)
	}
	if uint64(shipped) < ref.Stats().Admitted {
		t.Fatalf("shards shipped %d candidates, fewer than the %d globally admitted", shipped, ref.Stats().Admitted)
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		order := rng.Perm(len(deltas))
		// Every delivery repeats (at-least-once).
		var arrivals []int
		for _, lease := range order {
			arrivals = append(arrivals, lease, lease)
		}
		merged := corpus.New(maxSeeds)
		mergeInOrder(t, merged, 0, arrivals, deltas)
		if got := corpusKey(merged); got != want {
			t.Errorf("trial %d (order %v): merged corpus diverges from single fold:\nwant %s\ngot  %s", trial, order, want, got)
		}
	}

	// Resume: the checkpoint holds leases 0 and 1; the resumed merge
	// starts at lease 2 and sees every lease replayed, in reverse.
	resumed := corpus.New(maxSeeds)
	mergeInOrder(t, resumed, 0, []int{0, 1}, deltas[:2])
	var replay []int
	for i := len(deltas) - 1; i >= 0; i-- {
		replay = append(replay, i)
	}
	mergeInOrder(t, resumed, 2, replay, deltas)
	if got := corpusKey(resumed); got != want {
		t.Errorf("resumed merge diverges from single fold:\nwant %s\ngot  %s", want, got)
	}
}

// TestDeltaMergeShardCountInvariant: 1 shard per lease vs 1 shard for the
// whole stream must merge to the same corpus — worker count is not
// observable in the merged state.
func TestDeltaMergeShardCountInvariant(t *testing.T) {
	const n, maxSeeds = 96, 6
	inputs := makeInputs(n)
	for _, leaseLen := range []int{n, n / 4, n / 8} {
		deltas := shardDeltas(inputs, leaseLen, maxSeeds)
		merged := corpus.New(maxSeeds)
		for _, d := range deltas {
			if err := merged.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
		}
		ref := corpus.New(maxSeeds)
		fold(ref, inputs)
		if got, want := corpusKey(merged), corpusKey(ref); got != want {
			t.Errorf("leaseLen %d: merged corpus diverges:\nwant %s\ngot  %s", leaseLen, want, got)
		}
	}
}
