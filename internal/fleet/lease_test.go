package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func leaseIDs(rs []*Result) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = r.LeaseID
	}
	return out
}

// TestLeaseTableConcurrentRelease: connection handlers race to complete
// leases in any order, each lease twice (an expired lease finishing on
// two workers), and to release them, the way the coordinator's handlers
// do. Exactly one result per lease is accepted, and results release in
// lease-ID order, each once — the coordinator's whole determinism
// contract (run under -race in CI).
func TestLeaseTableConcurrentRelease(t *testing.T) {
	const leases = 16
	tab := newLeaseTable(0, leases*8, 8, 0)
	var releaseMu sync.Mutex // the coordinator's releaseMu
	var released []int64
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for _, k := range rand.New(rand.NewSource(1)).Perm(2 * leases) {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			if tab.complete(&Result{LeaseID: id}) {
				accepted.Add(1)
			}
			releaseMu.Lock()
			released = append(released, leaseIDs(tab.releasable())...)
			releaseMu.Unlock()
		}(int64(k % leases))
	}
	wg.Wait()
	var want []int64
	for id := int64(0); id < leases; id++ {
		want = append(want, id)
	}
	if !reflect.DeepEqual(released, want) {
		t.Errorf("released %v, want %v", released, want)
	}
	if accepted.Load() != leases {
		t.Errorf("accepted %d results for %d leases", accepted.Load(), leases)
	}
	if _, ok := tab.acquire("w"); ok {
		t.Error("acquire granted a lease after every lease released")
	}
}

// TestLeaseTableResume: a table built at a resume watermark treats every
// lease wholly below it as released — a replayed result for one is
// refused — re-runs the lease the watermark falls inside whole, and
// releases from there on in lease order.
func TestLeaseTableResume(t *testing.T) {
	// Five 8-slot leases; slots below 20 were folded by the previous
	// incarnation, so leases 0 and 1 are done and lease 2 ([16, 24))
	// re-runs.
	tab := newLeaseTable(0, 40, 8, 20)
	if wm := tab.watermark(); wm != 2 {
		t.Fatalf("resumed watermark is lease %d, want 2", wm)
	}
	if l, ok := tab.acquire("w"); !ok || l.ID != 2 {
		t.Fatalf("first acquire after resume = %+v (ok %v), want lease 2", l, ok)
	}
	for id := int64(4); id >= 0; id-- { // replay everything, reversed
		if got, want := tab.complete(&Result{LeaseID: id}), id >= 2; got != want {
			t.Errorf("complete(lease %d) = %v, want %v", id, got, want)
		}
	}
	if got := leaseIDs(tab.releasable()); !reflect.DeepEqual(got, []int64{2, 3, 4}) {
		t.Errorf("released %v after resume, want [2 3 4]", got)
	}
}

// TestFleetRefusesResultWithoutDelta: a result frame whose corpus delta
// is missing is refused at the connection — the connection drops and
// its lease re-issues — so the merge never folds a hole. Accepting it
// would release the lease with nothing folded for it: the master corpus
// would silently diverge from the single-process one while the campaign
// still reported done.
func TestFleetRefusesResultWithoutDelta(t *testing.T) {
	run := testRun()
	run.Reduce = false
	const seeds, leaseSlots = 24, 8
	want, wantCorpus := directRun(t, run, seeds)
	coord, err := NewCoordinator(CoordinatorConfig{Run: run, Seeds: seeds, LeaseSlots: leaseSlots})
	if err != nil {
		t.Fatal(err)
	}

	// A worker that takes lease 0 and answers with `"delta": null`.
	ctx := context.Background()
	coordEnd, workerEnd := net.Pipe()
	handled := make(chan error, 1)
	go func() { handled <- coord.HandleConn(ctx, coordEnd) }()
	if err := writeMsg(workerEnd, &Envelope{Type: MsgHello, Hello: &Hello{Worker: "bad", Proto: ProtoVersion}}); err != nil {
		t.Fatal(err)
	}
	if _, err := readMsg(workerEnd); err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(workerEnd, &Envelope{Type: MsgNeed}); err != nil {
		t.Fatal(err)
	}
	env, err := readMsg(workerEnd)
	if err != nil || env.Lease == nil || env.Lease.ID != 0 {
		t.Fatalf("bad worker got %+v (err %v), want lease 0", env, err)
	}
	if err := writeMsg(workerEnd, &Envelope{Type: MsgResult, Result: &Result{LeaseID: 0, Worker: "bad"}}); err != nil {
		t.Fatal(err)
	}
	workerEnd.Close()
	if err := <-handled; err == nil || !strings.Contains(err.Error(), "without corpus delta") {
		t.Errorf("coordinator handled a delta-less result with %v, want a refusal", err)
	}

	if err := RunLocal(ctx, coord, localWorkers(2)); err != nil {
		t.Fatal(err)
	}
	if !sameStream(want, coord.Findings()) {
		t.Errorf("finding stream after the refusal differs from the single process: %x, want %x",
			fingerprints(coord.Findings()), fingerprints(want))
	}
	corpusKey := func(fps []uint64, st any) string { return fmt.Sprint(fps, st) }
	if got, want := corpusKey(coord.Corpus().Fingerprints(), coord.Corpus().Stats()),
		corpusKey(wantCorpus.Fingerprints(), wantCorpus.Stats()); got != want {
		t.Errorf("merged corpus diverges from the single process:\nwant %s\ngot  %s", want, got)
	}
}
