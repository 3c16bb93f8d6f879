package validate_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"gauntlet/internal/compiler"
	"gauntlet/internal/validate"
)

const cacheProg = `
header Eth { bit<8> kind; bit<8> val; }
struct Headers { Eth eth; }
control ig(inout Headers hdr) {
    action bump() { hdr.eth.val = hdr.eth.val + 8w3; }
    table t {
        key = { hdr.eth.kind : exact; }
        actions = { bump; NoAction; }
        default_action = NoAction();
    }
    apply {
        t.apply();
        if (hdr.eth.kind == 8w1) {
            hdr.eth.val = hdr.eth.val * 8w2;
        }
    }
}
V1Switch(ig) main;
`

// TestSnapshotsSharedCacheSkipsRework validates the incremental fast
// path: a second validation of the same compilation through a shared
// cache must produce identical verdicts without re-running symbolic
// execution or the solver.
func TestSnapshotsSharedCacheSkipsRework(t *testing.T) {
	prog := mustProg(t, cacheProg)
	res, err := compiler.New(compiler.DefaultPasses()...).Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	cache := validate.NewCache()
	first, err := validate.Snapshots(res, validate.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("expected at least one verdict")
	}
	before := cache.Snapshot()
	if before.BlockMisses == 0 {
		t.Fatal("first run should have populated the block cache")
	}

	second, err := validate.Snapshots(res, validate.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached verdicts differ:\n  first  %v\n  second %v", first, second)
	}
	after := cache.Snapshot()
	if after.BlockMisses != before.BlockMisses {
		t.Fatalf("second run re-executed blocks symbolically: misses %d → %d", before.BlockMisses, after.BlockMisses)
	}
	if after.VerdictMisses != before.VerdictMisses {
		t.Fatalf("second run re-solved equivalence queries: misses %d → %d", before.VerdictMisses, after.VerdictMisses)
	}
	if after.BlockHits == 0 {
		t.Fatal("expected block-cache hits on the second run")
	}
}

// TestSnapshotsCacheConcurrent shares one cache across goroutines
// validating the same compilation — the campaign worker-pool usage. Run
// with -race in CI.
func TestSnapshotsCacheConcurrent(t *testing.T) {
	prog := mustProg(t, cacheProg)
	res, err := compiler.New(compiler.DefaultPasses()...).Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	cache := validate.NewCache()
	want, err := validate.Snapshots(res, validate.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	outs := make([][]validate.Verdict, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w], errs[w] = validate.Snapshots(res, validate.Options{Cache: cache})
		}(w)
	}
	wg.Wait()
	for w := range outs {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(outs[w], want) {
			t.Fatalf("worker %d verdicts diverge", w)
		}
	}
}

// TestCacheKeysIncludeTypeContext guards the block-formula cache key:
// these two programs print their parser and deparser blocks identically,
// but the header field widths differ, so the blocks mean different
// formulas. Validating the second program through a cache warmed by the
// first must re-symbolize (miss), not reuse the 8-bit formulas.
func TestCacheKeysIncludeTypeContext(t *testing.T) {
	const shape = `
header Eth { bit<%s> kind; bit<%s> val; }
struct Headers { Eth eth; }
parser p(packet pkt, out Headers hdr) {
    state start {
        pkt.extract(hdr.eth);
        transition accept;
    }
}
control dep(packet pkt, in Headers hdr) {
    apply { pkt.emit(hdr.eth); }
}
V1Switch(p, dep) main;
`
	progA := mustProg(t, strings.ReplaceAll(shape, "%s", "8"))
	progB := mustProg(t, strings.ReplaceAll(shape, "%s", "16"))

	cache := validate.NewCache()
	resA, err := compiler.New(compiler.DefaultPasses()...).Compile(progA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := validate.Snapshots(resA, validate.Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	missA := cache.Snapshot().BlockMisses

	resB, err := compiler.New(compiler.DefaultPasses()...).Compile(progB)
	if err != nil {
		t.Fatal(err)
	}
	verdicts, err := validate.Snapshots(resB, validate.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(validate.Failures(verdicts)) != 0 {
		t.Fatalf("reference pipeline flagged: %v", verdicts)
	}
	missB := cache.Snapshot().BlockMisses
	if missB == missA {
		t.Fatal("16-bit program reused the 8-bit program's block formulas (cache key ignores type context)")
	}
}

// TestPrivateCacheStillCorrect: with no shared cache, each call gets a
// private one and verdicts match the shared-cache run (the default path
// used by one-off validations).
func TestPrivateCacheStillCorrect(t *testing.T) {
	prog := mustProg(t, cacheProg)
	res, err := compiler.New(compiler.DefaultPasses()...).Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	private, err := validate.Snapshots(res, validate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := validate.Snapshots(res, validate.Options{Cache: validate.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(private, shared) {
		t.Fatalf("private and shared cache runs disagree:\n  %v\n  %v", private, shared)
	}
}
