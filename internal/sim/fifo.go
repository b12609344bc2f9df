package sim

// FIFO is a growable ring queue. The simulation's steady-state queues
// (NIC send/receive staging, GM backlogs) push at the tail and pop at
// the head; a ring reuses its backing array instead of the
// slice-head-advance idiom (q = q[1:]), whose append side reallocates
// once per buffer length. Push amortises to zero allocations once the
// queue has reached its high-water capacity.
type FIFO[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// Pop removes and returns the head. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop on empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop the reference for the collector
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}

// Peek returns the head without removing it. It panics on an empty
// queue.
func (q *FIFO[T]) Peek() T {
	if q.n == 0 {
		panic("sim: Peek on empty FIFO")
	}
	return q.buf[q.head]
}

// At returns the i-th element from the head (0 is the next Pop).
func (q *FIFO[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("sim: FIFO index out of range")
	}
	return q.buf[(q.head+i)%len(q.buf)]
}

// Clear empties the queue, releasing element references but keeping
// the capacity.
func (q *FIFO[T]) Clear() {
	var zero T
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)%len(q.buf)] = zero
	}
	q.head = 0
	q.n = 0
}

func (q *FIFO[T]) grow() {
	next := make([]T, 2*len(q.buf)+4)
	for i := 0; i < q.n; i++ {
		next[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = next
	q.head = 0
}
