package ring

import (
	"math/rand"
	"testing"

	"padres/internal/israce"
)

// checkSpare fails unless every slot outside the queue's live window is
// zero: a popped element must not stay reachable through the ring.
func checkSpare(t *testing.T, q *Queue[*int], step int) {
	t.Helper()
	for i := q.n; i < len(q.buf); i++ {
		if q.buf[(q.head+i)&(len(q.buf)-1)] != nil {
			t.Fatalf("step %d: spare slot %d of %d still holds a popped element", step, i, len(q.buf))
		}
	}
}

// TestQueueAgainstSlice drives a Queue and a plain slice with the same
// seeded random Push/Pop/At/swap-last-two steps and requires them to agree
// at every step. Each walk alternates filling and draining phases of random
// length, so the depth climbs into the thousands and falls back: the ring
// wraps, grows while wrapped, shrinks while wrapped and grows back to a
// capacity it gave up. A capacity is given back only once per queue, so the
// steps are spent on many queues, a fresh one every 12 500.
func TestQueueAgainstSlice(t *testing.T) {
	steps, perQueue := 1_000_000, 12_500
	if testing.Short() || israce.Enabled {
		steps = 50_000 // the race detector slows this 10x; the short walk still meets every case below
	}
	var deepest, grewWrapped, shrankWrapped int
	for seed := int64(1); seed <= int64(steps/perQueue); seed++ {
		r := rand.New(rand.NewSource(seed))
		var q Queue[*int]
		var model []*int
		pushBias, phaseEnd := 0.25, 0
		for step := 0; step < perQueue; step++ {
			if step == phaseEnd {
				pushBias = 0.9 - pushBias // 0.65 filling, 0.25 draining
				phaseEnd += 1 + r.Intn(4096)
				checkSpare(t, &q, step)
			}
			capBefore, wrapped := q.Cap(), q.head+q.n > len(q.buf)
			switch x := r.Float64(); {
			case x < pushBias:
				v := new(int)
				*v = step
				q.Push(v)
				model = append(model, v)
				if q.Cap() != capBefore && wrapped {
					grewWrapped++
				}
			case x < 0.9:
				if len(model) == 0 {
					continue
				}
				slot := q.head
				if got := q.Pop(); got != model[0] {
					t.Fatalf("seed %d step %d: Pop = %d, model has %d", seed, step, *got, *model[0])
				}
				model = model[1:]
				if q.Cap() != capBefore {
					if wrapped {
						shrankWrapped++
					}
				} else if q.buf[slot] != nil {
					t.Fatalf("seed %d step %d: Pop left its slot set", seed, step)
				}
			case x < 0.95:
				if len(model) == 0 {
					continue
				}
				i := r.Intn(len(model))
				if got := *q.At(i); got != model[i] {
					t.Fatalf("seed %d step %d: At(%d) = %d, model has %d", seed, step, i, *got, *model[i])
				}
			default:
				n := len(model)
				if n < 2 {
					continue
				}
				a, b := q.At(n-2), q.At(n-1)
				*a, *b = *b, *a
				model[n-2], model[n-1] = model[n-1], model[n-2]
			}
			deepest = max(deepest, len(model))
			if q.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, model has %d", seed, step, q.Len(), len(model))
			}
			if c := q.Cap(); c&(c-1) != 0 || c < q.Len() || c > max(minCap, 2*deepest) {
				t.Fatalf("seed %d step %d: capacity %d with %d queued, deepest %d", seed, step, c, q.Len(), deepest)
			}
		}
		for i, want := range model {
			if got := q.Pop(); got != want {
				t.Fatalf("seed %d drain %d: Pop = %d, model has %d", seed, i, *got, *want)
			}
		}
		checkSpare(t, &q, perQueue)
	}
	t.Logf("deepest %d, grew wrapped %d, shrank wrapped %d", deepest, grewWrapped, shrankWrapped)
	if deepest < 1000 || grewWrapped == 0 || shrankWrapped == 0 {
		t.Fatalf("walk too tame: deepest %d, grew wrapped %d, shrank wrapped %d", deepest, grewWrapped, shrankWrapped)
	}
}

// TestSwapAcrossWrap swaps the last two elements while they sit in the
// ring's last and first slots.
func TestSwapAcrossWrap(t *testing.T) {
	var q Queue[int]
	for i := 0; i < minCap-1; i++ {
		q.Push(i)
	}
	for i := 0; i < minCap-2; i++ {
		q.Pop()
	}
	q.Push(100)
	q.Push(101) // queue is [14 100 101] in slots 14, 15, 0
	if q.Cap() != minCap || q.head != minCap-2 {
		t.Fatalf("setup: capacity %d, head %d", q.Cap(), q.head)
	}
	a, b := q.At(1), q.At(2)
	*a, *b = *b, *a
	for _, want := range []int{minCap - 2, 101, 100} {
		if got := q.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
}

// TestBurstGivenBack: a backlog the queue saw once leaves nothing behind.
func TestBurstGivenBack(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100_000; i++ {
		q.Push(i)
	}
	if q.Cap() != 131072 {
		t.Fatalf("capacity %d after 100000 pushes, want 131072", q.Cap())
	}
	for i := 0; i < 100_000; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
		if q.Cap() > minCap && q.Len() <= q.Cap()/4 {
			t.Fatalf("%d queued in a ring of %d: not halved", q.Len(), q.Cap())
		}
	}
	if q.Cap() != minCap {
		t.Fatalf("capacity %d after the burst drained, want the floor %d", q.Cap(), minCap)
	}
}

// TestWorkingDepthKept: a depth the queue reaches a second time is its
// working depth. The ring stops giving it back, and swinging between empty
// and that depth then allocates nothing.
func TestWorkingDepthKept(t *testing.T) {
	var q Queue[int]
	swing := func() {
		for i := 0; i < 1000; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	swing()
	if q.Cap() != minCap {
		t.Fatalf("capacity %d after the first swing, want the floor %d", q.Cap(), minCap)
	}
	swing()
	if q.Cap() != 1024 {
		t.Fatalf("capacity %d after the second swing, want 1024 kept", q.Cap())
	}
	if got := testing.AllocsPerRun(100, swing); got != 0 {
		t.Errorf("a swing at the working depth allocates %.1f times, want 0", got)
	}
	// A deeper one-off burst on top is still given back, down to what is kept.
	for i := 0; i < 10_000; i++ {
		q.Push(i)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if q.Cap() != 1024 {
		t.Fatalf("capacity %d after a one-off burst over the working depth, want 1024", q.Cap())
	}
}

func TestEmptyQueuePanics(t *testing.T) {
	for name, f := range map[string]func(q *Queue[int]){
		"Pop":   func(q *Queue[int]) { q.Pop() },
		"At(0)": func(q *Queue[int]) { q.At(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty queue did not panic", name)
				}
			}()
			var q Queue[int]
			q.Push(1)
			q.Pop()
			f(&q)
		}()
	}
}
