package sim

// FreeList recycles records of one type: Get pops a record returned
// earlier (or makes a new one) and Put returns it. Hot paths carry
// per-packet state in such records instead of allocating a closure or
// a fresh struct per event. Records come back as Put left them; the
// caller resets what it needs to. Out counts the records taken and
// not yet returned, the figure a pool ledger checks after a drained
// run.
type FreeList[T any] struct {
	free []*T
	out  int
}

// Get returns a record from the list, or a new zero one.
func (l *FreeList[T]) Get() *T {
	l.out++
	if k := len(l.free); k > 0 {
		x := l.free[k-1]
		l.free = l.free[:k-1]
		return x
	}
	return new(T)
}

// Put returns a record to the list.
func (l *FreeList[T]) Put(x *T) {
	l.free = append(l.free, x)
	l.out--
}

// Out returns the number of records taken and not yet returned.
func (l *FreeList[T]) Out() int { return l.out }
