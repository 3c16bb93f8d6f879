package fleet

import (
	"sync"
	"time"

	"gauntlet/internal/inorder"
)

// leaseStatus is an unreleased lease's lifecycle position (every lease
// below the results watermark is released).
type leaseStatus int

const (
	leasePending leaseStatus = iota // waiting to be issued (or re-issued)
	leaseIssued                     // held by a worker, expiry clock running
	leaseDone                       // a result arrived (first one wins)
)

// leaseTable owns the campaign's slot partition: every lease's bounds,
// status and issue time, plus the completed results behind the
// watermark. It is the single synchronization point between connection
// handlers (acquire / complete / fail), the expiry janitor and the
// release path; the determinism argument needs exactly one property from
// it — results release strictly in lease-ID order — which the in-order
// results buffer enforces by construction.
type leaseTable struct {
	mu   sync.Mutex
	cond *sync.Cond

	leases []Lease
	status []leaseStatus
	issued []time.Time // issue timestamp, per lease (valid when leaseIssued)
	holder []string    // issuing worker name (observability only)
	// results holds each lease's first result until it releases; its
	// watermark is the first unreleased lease ID.
	results *inorder.Buffer[*Result]

	reissued uint64
	closed   bool
}

// newLeaseTable partitions [start, start+seeds) into leases of leaseSlots
// (the final lease takes the remainder) and marks every lease wholly
// below resumeWatermark as already released — those slots were folded and
// journaled by a previous coordinator incarnation. A watermark inside a
// lease rounds down: the partial lease re-runs whole (at-least-once), and
// the journal-seeded dedup absorbs the replay.
func newLeaseTable(start, seeds, leaseSlots, resumeWatermark int64) *leaseTable {
	t := &leaseTable{}
	t.cond = sync.NewCond(&t.mu)
	for id, slot := int64(0), start; slot < start+seeds; id, slot = id+1, slot+leaseSlots {
		count := leaseSlots
		if rem := start + seeds - slot; rem < count {
			count = rem
		}
		t.leases = append(t.leases, Lease{ID: id, Start: slot, Count: count})
		t.status = append(t.status, leasePending)
		t.issued = append(t.issued, time.Time{})
		t.holder = append(t.holder, "")
	}
	released := int64(0)
	for released < t.total() && t.leases[released].Start+t.leases[released].Count <= resumeWatermark {
		released++
	}
	t.results = inorder.New[*Result](released)
	return t
}

// total returns the lease count.
func (t *leaseTable) total() int64 { return int64(len(t.leases)) }

// acquire blocks until a pending lease is available (returning the
// lowest-ID one, so re-issues and watermark progress come first) or the
// campaign is finished or closed (ok = false). worker is recorded for
// observability.
func (t *leaseTable) acquire(worker string) (Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.closed || t.results.Next() >= t.total() {
			return Lease{}, false
		}
		for id := t.results.Next(); id < t.total(); id++ {
			if t.status[id] == leasePending {
				t.status[id] = leaseIssued
				t.issued[id] = time.Now()
				t.holder[id] = worker
				return t.leases[id], true
			}
		}
		t.cond.Wait()
	}
}

// complete records a lease result. The first result wins; a duplicate —
// an expired-and-re-issued lease finishing twice — is dropped, which is
// safe because lease results are deterministic: both copies carry
// identical bytes. Returns whether the result was accepted.
func (t *leaseTable) complete(res *Result) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := res.LeaseID
	if id >= t.total() || !t.results.Put(id, res) {
		return false
	}
	t.status[id] = leaseDone
	t.cond.Broadcast()
	return true
}

// releasable pops the contiguous run of completed leases at the
// watermark, advancing it. The caller (the coordinator's release path)
// processes them in the returned order — lease-ID order — which is the
// whole determinism contract.
func (t *leaseTable) releasable() []*Result {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Result
	for res, ok := t.results.Pop(); ok; res, ok = t.results.Pop() {
		out = append(out, res)
	}
	if t.results.Next() >= t.total() {
		t.cond.Broadcast() // wake acquirers so they see the drain
	}
	return out
}

// watermark returns the first unreleased lease ID.
func (t *leaseTable) watermark() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.results.Next()
}

// expire returns every issued lease older than deadline to the pending
// state (a dead, hung or killed worker's lease re-issues to the next
// acquirer) and reports how many moved.
func (t *leaseTable) expire(deadline time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for id := t.results.Next(); id < t.total(); id++ {
		if t.status[id] == leaseIssued && t.issued[id].Before(deadline) {
			t.status[id] = leasePending
			t.holder[id] = ""
			t.reissued++
			n++
		}
	}
	if n > 0 {
		t.cond.Broadcast()
	}
	return n
}

// fail returns every lease issued to worker to the pending state — the
// connection-loss path, which beats the expiry clock when the TCP layer
// notices first.
func (t *leaseTable) fail(worker string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for id := t.results.Next(); id < t.total(); id++ {
		if t.status[id] == leaseIssued && t.holder[id] == worker {
			t.status[id] = leasePending
			t.holder[id] = ""
			t.reissued++
			n++
		}
	}
	if n > 0 {
		t.cond.Broadcast()
	}
	return n
}

// close wakes every blocked acquirer with ok = false (coordinator
// shutdown / context cancellation).
func (t *leaseTable) close() {
	t.mu.Lock()
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
}

// snapshot reports the counts /statusz shows.
func (t *leaseTable) snapshot() (total, released, inflight int64, reissued uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := t.results.Next(); id < t.total(); id++ {
		if t.status[id] == leaseIssued {
			inflight++
		}
	}
	return t.total(), t.results.Next(), inflight, t.reissued
}
