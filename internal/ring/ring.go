// Package ring provides Queue, the FIFO behind every mailbox on the message
// path: a link's frame queue, a broker's inbox and a client's notification
// queue. A slice popped with q = q[1:] walks off its backing array and
// re-allocates it every time it fills, even at constant depth; a ring
// reuses its slots, so a queue at steady depth produces no garbage.
package ring

// minCap is the capacity a queue is first allocated with and never shrinks
// below; it is small enough to be held by every link of a thousand-broker
// overlay.
const minCap = 16

// Queue is an unbounded FIFO over a power-of-two ring. The zero value is an
// empty queue that holds no memory until the first Push. A Queue is not
// safe for concurrent use; each mailbox guards its own with its own lock.
type Queue[T any] struct {
	buf  []T // len(buf) is 0 or a power of two ≥ minCap
	head int // index of the oldest element
	n    int
	// peak is the largest capacity the ring has had; keep is the largest
	// it has had to grow to a second time, below which it no longer
	// shrinks (see Pop).
	peak, keep int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns the number of elements the queue holds memory for.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Push appends v, doubling the ring when it is full.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		c := max(minCap, 2*len(q.buf))
		if c > q.peak {
			q.peak = c
		} else {
			q.keep = c
		}
		q.resize(c)
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest element; it panics on an empty queue.
// The vacated slot is zeroed, so the queue does not pin what it has handed
// on, and a ring left at most a quarter full is halved, so the memory of a
// burst is given back as the burst drains.
//
// A queue whose consumer runs in turns with its producer swings between
// empty and its working depth all the time, and giving that depth back on
// every swing would cost more garbage than the slice did. So a capacity is
// given back only the first time: once the ring has had to grow to a
// capacity again, it keeps it. A one-off burst is returned in full; a
// working depth is learned in one swing and costs nothing after.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("ring: Pop on an empty queue")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	if len(q.buf) > max(minCap, q.keep) && q.n <= len(q.buf)/4 {
		q.resize(len(q.buf) / 2)
	}
	return v
}

// At returns a pointer to the i-th oldest element, 0 ≤ i < Len, for reading
// or swapping in place. The pointer is valid until the next Push or Pop.
func (q *Queue[T]) At(i int) *T {
	if uint(i) >= uint(q.n) {
		panic("ring: index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// resize moves the elements, oldest first, into a ring of the given
// capacity.
func (q *Queue[T]) resize(capacity int) {
	buf := make([]T, capacity)
	k := copy(buf, q.buf[q.head:min(q.head+q.n, len(q.buf))])
	copy(buf[k:], q.buf[:q.n-k])
	q.buf, q.head = buf, 0
}
