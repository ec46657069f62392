package core

import (
	"time"

	"padres/internal/client"
	"padres/internal/message"
	"padres/internal/telemetry"
)

// This file bridges the container's protocol events into the telemetry
// layer. The dependency points one way only — core imports telemetry — so
// the telemetry package stays importable from every layer of the stack.

// PhaseSink returns an EventSink that feeds movement events into a span
// recorder, which derives one span per 3PC phase (init, prepare, precommit,
// commit, abort) for each movement transaction. Events without a
// transaction (such as client state transitions) are ignored by the
// recorder.
func PhaseSink(rec *telemetry.SpanRecorder) EventSink {
	return func(e Event) {
		rec.Observe(string(e.Tx), string(e.Client), string(e.Broker), e.Kind.String(), e.At, e.Detail)
	}
}

// installStateObserver wires a hosted client's Fig. 4 state machine into
// the container's event stream as EventClientState events. The observer
// runs under the client stub's lock, which is why emit must not take
// ct.mu (see Container.events).
func (ct *Container) installStateObserver(c *client.Client) {
	c.SetStateObserver(func(id message.ClientID, from, to client.State, at time.Time) {
		ct.emit(EventClientState, "", id, from.String()+"->"+to.String())
	})
}
