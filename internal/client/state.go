package client

import (
	"fmt"
	"sort"

	"padres/internal/message"
	"padres/internal/predicate"
	"padres/internal/wire"
)

// The client stub's state can be serialized into the MoveState message's
// AppState payload, which is how the paper's protocol actually ships a
// client between sites. In-process deployments short-circuit through a
// shared directory; across processes (the TCP deployment) the target
// coordinator reconstructs the stub from this serialized form.
//
// The payload is the compact binary form (docs/PROTOCOL.md, "Wire codec"):
// a version byte, then the stub fields with map keys in sorted order so the
// same state always serializes to the same bytes.

// stateVersion is the client-state schema version.
const stateVersion = 1

// Serialize captures the stub's application-relevant state: installed
// filters, the exactly-once delivery history, undelivered notifications,
// queued commands, and the identifier counter. It is valid while the client
// is stopped for a movement (PauseMove or PrepareStop).
func (c *Client) Serialize() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	b := []byte{stateVersion}
	b = wire.AppendString(b, string(c.id))

	subIDs := make([]string, 0, len(c.subs))
	for id := range c.subs {
		subIDs = append(subIDs, string(id))
	}
	sort.Strings(subIDs)
	b = wire.AppendUvarint(b, uint64(len(subIDs)))
	for _, id := range subIDs {
		b = wire.AppendString(b, id)
		b = appendFilter(b, c.subs[message.SubID(id)])
	}

	advIDs := make([]string, 0, len(c.advs))
	for id := range c.advs {
		advIDs = append(advIDs, string(id))
	}
	sort.Strings(advIDs)
	b = wire.AppendUvarint(b, uint64(len(advIDs)))
	for _, id := range advIDs {
		b = wire.AppendString(b, id)
		b = appendFilter(b, c.advs[message.AdvID(id)])
	}

	seen := make([]string, 0, len(c.seen))
	for id := range c.seen {
		seen = append(seen, string(id))
	}
	sort.Strings(seen)
	b = wire.AppendUvarint(b, uint64(len(seen)))
	for _, id := range seen {
		b = wire.AppendString(b, id)
	}

	b = wire.AppendUvarint(b, uint64(c.queue.Len()))
	for i := range c.queue.Len() {
		var err error
		if b, err = message.AppendMessage(b, *c.queue.At(i)); err != nil {
			return nil, fmt.Errorf("serialize client %s: queued publication: %w", c.id, err)
		}
	}

	b = wire.AppendUvarint(b, uint64(len(c.pending)))
	for _, m := range c.pending {
		var err error
		if b, err = message.AppendMessage(b, m); err != nil {
			return nil, fmt.Errorf("serialize client %s: pending command: %w", c.id, err)
		}
	}

	b = wire.AppendUvarint(b, c.gen.Count())
	return b, nil
}

// Deserialize reconstructs a client stub from its serialized state, in
// PauseMove state, ready for CompleteMove at the target broker.
func Deserialize(data []byte) (*Client, error) {
	ver, b, err := wire.Byte(data)
	if err != nil {
		return nil, fmt.Errorf("deserialize client state: %w", err)
	}
	if ver != stateVersion {
		return nil, fmt.Errorf("deserialize client state: unsupported version %d", ver)
	}
	id, b, err := wire.String(b)
	if err != nil {
		return nil, fmt.Errorf("deserialize client state: %w", err)
	}

	c := New(message.ClientID(id))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setStateLocked(StatePauseMove)

	n, b, err := wire.Len(b)
	if err != nil {
		return nil, fmt.Errorf("deserialize client state: subs: %w", err)
	}
	for i := 0; i < n; i++ {
		var sid string
		var f *predicate.Filter
		if sid, f, b, err = readIDFilter(b); err != nil {
			return nil, fmt.Errorf("deserialize client state: sub %d: %w", i, err)
		}
		c.subs[message.SubID(sid)] = f
	}

	if n, b, err = wire.Len(b); err != nil {
		return nil, fmt.Errorf("deserialize client state: advs: %w", err)
	}
	for i := 0; i < n; i++ {
		var aid string
		var f *predicate.Filter
		if aid, f, b, err = readIDFilter(b); err != nil {
			return nil, fmt.Errorf("deserialize client state: adv %d: %w", i, err)
		}
		c.advs[message.AdvID(aid)] = f
	}

	if n, b, err = wire.Len(b); err != nil {
		return nil, fmt.Errorf("deserialize client state: seen: %w", err)
	}
	for i := 0; i < n; i++ {
		var pid string
		if pid, b, err = wire.String(b); err != nil {
			return nil, fmt.Errorf("deserialize client state: seen %d: %w", i, err)
		}
		c.seen[message.PubID(pid)] = true
	}

	if n, b, err = wire.Len(b); err != nil {
		return nil, fmt.Errorf("deserialize client state: queue: %w", err)
	}
	for i := 0; i < n; i++ {
		var m message.Message
		if m, b, err = message.ReadMessage(b); err != nil {
			return nil, fmt.Errorf("deserialize client state: queue %d: %w", i, err)
		}
		p, ok := m.(message.Publish)
		if !ok {
			return nil, fmt.Errorf("deserialize client state: queue %d: unexpected %s", i, m.Kind())
		}
		c.queue.Push(p)
	}

	if n, b, err = wire.Len(b); err != nil {
		return nil, fmt.Errorf("deserialize client state: pending: %w", err)
	}
	for i := 0; i < n; i++ {
		var m message.Message
		if m, b, err = message.ReadMessage(b); err != nil {
			return nil, fmt.Errorf("deserialize client state: pending %d: %w", i, err)
		}
		c.pending = append(c.pending, m)
	}

	count, b, err := wire.Uvarint(b)
	if err != nil {
		return nil, fmt.Errorf("deserialize client state: id counter: %w", err)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("deserialize client state: %d trailing bytes", len(b))
	}
	c.gen.SetCount(count)
	return c, nil
}

// appendFilter appends a nil-able filter with a presence byte.
func appendFilter(b []byte, f *predicate.Filter) []byte {
	if f == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	return f.AppendBinary(b)
}

func readIDFilter(b []byte) (string, *predicate.Filter, []byte, error) {
	id, b, err := wire.String(b)
	if err != nil {
		return "", nil, nil, err
	}
	present, b, err := wire.Byte(b)
	if err != nil {
		return "", nil, nil, err
	}
	if present == 0 {
		return id, nil, b, nil
	}
	f, b, err := predicate.ReadFilter(b)
	if err != nil {
		return "", nil, nil, err
	}
	return id, f, b, nil
}
