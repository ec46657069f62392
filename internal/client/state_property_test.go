package client

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"padres/internal/message"
	"padres/internal/predicate"
)

// TestStateCodecRoundTripProperty: for 10 000 random stub states —
// subscriptions and advertisements with random filters (nil included), a
// delivery history, queued publications, pending commands and an ID
// counter — Deserialize(Serialize(c)) restores the same filters, queue and
// counter, and serializes back to the very same bytes.
func TestStateCodecRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		c := randomStub(r, i)
		data, err := c.Serialize()
		if err != nil {
			t.Fatalf("state %d: serialize: %v", i, err)
		}
		got, err := Deserialize(data)
		if err != nil {
			t.Fatalf("state %d: deserialize: %v", i, err)
		}
		again, err := got.Serialize()
		if err != nil {
			t.Fatalf("state %d: re-serialize: %v", i, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("state %d: re-serialized %d bytes differ from the original %d", i, len(again), len(data))
		}
		if got.ID() != c.ID() || got.State() != StatePauseMove {
			t.Fatalf("state %d: restored %s in %s, want %s in %s", i, got.ID(), got.State(), c.ID(), StatePauseMove)
		}
		if !sameFilters(got.Subs(), c.Subs()) || !sameFilters(got.Advs(), c.Advs()) {
			t.Fatalf("state %d: filters changed: subs %v → %v, advs %v → %v", i, c.Subs(), got.Subs(), c.Advs(), got.Advs())
		}
		if got.QueueLen() != c.QueueLen() || len(got.pending) != len(c.pending) || len(got.seen) != len(c.seen) {
			t.Fatalf("state %d: queue %d → %d, pending %d → %d, seen %d → %d", i,
				c.QueueLen(), got.QueueLen(), len(c.pending), len(got.pending), len(c.seen), len(got.seen))
		}
		if got.gen.Count() != c.gen.Count() {
			t.Fatalf("state %d: ID counter %d → %d", i, c.gen.Count(), got.gen.Count())
		}
	}
}

func sameFilters[ID comparable](a, b map[ID]*predicate.Filter) bool {
	if len(a) != len(b) {
		return false
	}
	for id, f := range a {
		g, ok := b[id]
		if !ok || !f.Equal(g) {
			return false
		}
	}
	return true
}

// randomStub builds a stopped stub with a random state; every part is
// empty in some of the states.
func randomStub(r *rand.Rand, i int) *Client {
	id := message.ClientID(fmt.Sprintf("c%d", i))
	c := New(id)
	c.setStateLocked(StatePauseMove)
	for n := r.Intn(4); n > 0; n-- {
		c.subs[message.SubID(fmt.Sprintf("%s-s%d", id, r.Intn(100)))] = randomFilterOrNil(r)
	}
	for n := r.Intn(4); n > 0; n-- {
		c.advs[message.AdvID(fmt.Sprintf("%s-a%d", id, r.Intn(100)))] = randomFilterOrNil(r)
	}
	for n := r.Intn(20); n > 0; n-- {
		c.seen[message.PubID(fmt.Sprintf("p%d-p%d", r.Intn(5), r.Intn(1000)))] = true
	}
	for n := r.Intn(4); n > 0; n-- {
		c.queue.Push(randomPublish(r))
	}
	for n := r.Intn(4); n > 0; n-- {
		var m message.Message
		switch r.Intn(5) {
		case 0:
			m = message.Subscribe{ID: message.SubID(fmt.Sprintf("%s-s%d", id, r.Intn(100))), Client: id, Filter: randomFilter(r)}
		case 1:
			m = message.Unsubscribe{ID: message.SubID(fmt.Sprintf("%s-s%d", id, r.Intn(100))), Client: id}
		case 2:
			m = message.Advertise{ID: message.AdvID(fmt.Sprintf("%s-a%d", id, r.Intn(100))), Client: id, Filter: randomFilter(r)}
		case 3:
			m = message.Unadvertise{ID: message.AdvID(fmt.Sprintf("%s-a%d", id, r.Intn(100))), Client: id}
		default:
			m = randomPublish(r)
		}
		c.pending = append(c.pending, m)
	}
	c.gen.SetCount(uint64(r.Int63n(1 << 40)))
	return c
}

var propAttrs = []string{"x", "y", "class"}

func randomValue(r *rand.Rand) predicate.Value {
	if r.Intn(2) == 0 {
		return predicate.Number(float64(r.Intn(2001)-1000) / 4)
	}
	return predicate.String(string("abc"[r.Intn(3)]) + string("xyz"[r.Intn(3)]))
}

func randomFilter(r *rand.Rand) *predicate.Filter {
	for {
		preds := make([]predicate.Predicate, 1+r.Intn(3))
		for k := range preds {
			p := predicate.Predicate{Attr: propAttrs[r.Intn(len(propAttrs))], Op: predicate.Op(1 + r.Intn(int(predicate.OpPresent)))}
			switch p.Op {
			case predicate.OpPrefix:
				p.Value = predicate.String("ab"[:1+r.Intn(2)])
			case predicate.OpPresent:
			default:
				p.Value = randomValue(r)
			}
			preds[k] = p
		}
		if f, err := predicate.NewFilter(preds...); err == nil {
			return f
		}
	}
}

func randomFilterOrNil(r *rand.Rand) *predicate.Filter {
	if r.Intn(5) == 0 {
		return nil
	}
	return randomFilter(r)
}

func randomPublish(r *rand.Rand) message.Publish {
	e := predicate.Event{}
	for _, a := range propAttrs {
		if r.Intn(2) == 0 {
			e[a] = randomValue(r)
		}
	}
	p := message.Publish{
		ID:     message.PubID(fmt.Sprintf("p%d-p%d", r.Intn(5), r.Intn(1000))),
		Client: message.ClientID(fmt.Sprintf("p%d", r.Intn(5))),
		Event:  e,
	}
	if r.Intn(4) == 0 {
		p.TxTag = message.TxID(fmt.Sprintf("mv-b%d-t%d", r.Intn(14), r.Intn(100)))
	}
	return p
}
