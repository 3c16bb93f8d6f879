package fleet

import (
	"math/rand"
	"reflect"
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
