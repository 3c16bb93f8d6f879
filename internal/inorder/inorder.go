// Package inorder is the one reorder mechanism behind every merge point
// where concurrent producers finish out of order but results must be
// consumed in a canonical sequence: the engine collector's per-slot
// compile and oracle records, the report stage's reduced findings, and
// the fleet coordinator's lease results. Values arrive keyed by a dense
// index in any order; a Buffer hands them back strictly in index order,
// each index at most once, so everything downstream of it is a function
// of the index sequence alone, never of arrival order.
package inorder

// Buffer releases values in index order behind a watermark: the lowest
// index not yet popped. A value offered early waits until every lower
// index has been popped; a value offered for an index that was already
// offered, or that lies below the watermark, is dropped — the first
// offer wins, which is what makes at-least-once replay of deterministic
// results safe. A Buffer is not safe for concurrent use: every user
// already serializes its merge point (one goroutine or one mutex).
type Buffer[T any] struct {
	next    int64
	pending map[int64]T
}

// New returns a buffer whose watermark starts at next: 0, a campaign's
// first slot, or a resume point whose lower indexes were released by an
// earlier incarnation.
func New[T any](next int64) *Buffer[T] {
	return &Buffer[T]{next: next, pending: make(map[int64]T)}
}

// Put keeps the first value offered for an index at or above the
// watermark and reports whether it kept it.
func (b *Buffer[T]) Put(i int64, v T) bool {
	if i < b.next {
		return false
	}
	if _, dup := b.pending[i]; dup {
		return false
	}
	b.pending[i] = v
	return true
}

// Pop returns the value at the watermark once it is present, then
// advances the watermark past it. It reports false, leaving the
// watermark in place, while that value is still outstanding.
func (b *Buffer[T]) Pop() (T, bool) {
	v, ok := b.pending[b.next]
	if ok {
		delete(b.pending, b.next)
		b.next++
	}
	return v, ok
}

// Next is the watermark: every index below it has been popped, none at
// or above it has.
func (b *Buffer[T]) Next() int64 { return b.next }
