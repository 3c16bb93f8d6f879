package solver

import "runtime"

// Recycled returns a session with the given conflict budget on the
// storage of used, reset as Close resets it. It bypasses the pool, which
// may hand out any closed session's blaster, so the caller knows the
// storage is reused.
func Recycled(used *Session, maxConflicts int) *Session {
	b := used.b
	used.b = nil
	b.reset()
	s := &Session{b: b.init()}
	s.b.sat.MaxConflicts = maxConflicts
	return s
}

// EmptyPool drops every pooled blaster, so the next NewSession builds a
// new one: a GC moves a sync.Pool's contents to its victim cache, and the
// next GC drops them.
func EmptyPool() {
	runtime.GC()
	runtime.GC()
}
