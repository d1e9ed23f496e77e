package sim

// FIFO is a first-in first-out queue on a growable ring buffer: the queue
// type of every per-message FIFO in the simulator (core run queues, NIC
// completion rings, switch egress queues, the Open-MX event ring, posted
// and unexpected receive lists, channel send queues).
//
// PushBack and PopFront are O(1). The buffer's capacity is a power of two;
// it doubles when full and is never shrunk, so a warm queue allocates
// nothing. Popped and removed slots are zeroed, so the queue does not keep
// dequeued pointers alive for the garbage collector. The zero value is an
// empty queue ready to use; the first push allocates a small buffer, never
// a worst-case one.
//
// RemoveAt deletes from the middle while preserving the order of the other
// elements; it moves the shorter side of the queue, so removing at or near
// either end is O(1).
type FIFO[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head int // index of the front element in buf
	n    int // live elements
}

// fifoMinCap is the capacity of a queue's first buffer.
const fifoMinCap = 4

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// slot maps queue position i (0 = front) to its index in buf.
func (q *FIFO[T]) slot(i int) int { return (q.head + i) & (len(q.buf) - 1) }

// PushBack appends v at the back of the queue.
//
//omxlint:hotpath
func (q *FIFO[T]) PushBack(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.slot(q.n)] = v
	q.n++
}

// PopFront removes and returns the front element. It panics on an empty
// queue.
//
//omxlint:hotpath
func (q *FIFO[T]) PopFront() T {
	if q.n == 0 {
		panic("sim: PopFront on empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = q.slot(1)
	q.n--
	return v
}

// Front returns the front element without removing it. It panics on an
// empty queue.
func (q *FIFO[T]) Front() T {
	if q.n == 0 {
		panic("sim: Front on empty FIFO")
	}
	return q.buf[q.head]
}

// At returns the element at position i, counted from the front.
func (q *FIFO[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("sim: FIFO index out of range")
	}
	return q.buf[q.slot(i)]
}

// RemoveAt removes and returns the element at position i, counted from the
// front; the remaining elements keep their order.
func (q *FIFO[T]) RemoveAt(i int) T {
	if i < 0 || i >= q.n {
		panic("sim: FIFO index out of range")
	}
	v := q.buf[q.slot(i)]
	if i < q.n/2 {
		// Shift the front part one slot back, then drop the front.
		for j := i; j > 0; j-- {
			q.buf[q.slot(j)] = q.buf[q.slot(j-1)]
		}
		var zero T
		q.buf[q.head] = zero
		q.head = q.slot(1)
	} else {
		// Shift the back part one slot forward, then drop the back.
		for j := i; j < q.n-1; j++ {
			q.buf[q.slot(j)] = q.buf[q.slot(j+1)]
		}
		var zero T
		q.buf[q.slot(q.n-1)] = zero
	}
	q.n--
	return v
}

// grow doubles the buffer (or allocates the first one) and unwraps the
// queue to start at index 0.
//
//omxlint:hotpath
func (q *FIFO[T]) grow() {
	c := 2 * len(q.buf)
	if c == 0 {
		c = fifoMinCap
	}
	//omxlint:allow hotpathalloc: growth doubles, so it is amortized; a warm queue never grows (guarded by TestFIFOWarmZeroAlloc)
	buf := make([]T, c)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf = buf
	q.head = 0
}
