package core

import (
	"fmt"

	"padres/internal/message"
)

// Admission policies. The paper motivates rejection with broker overload
// and authorization (Sec. 3.1); these helpers compose the common cases into
// AdmissionFunc values for Container configuration.

// AdmitAll accepts every client (equivalent to a nil policy).
func AdmitAll() AdmissionFunc {
	return func(message.MoveNegotiate) error { return nil }
}

// DenyClients rejects the listed clients — the "client is not authorized"
// rejection.
func DenyClients(ids ...message.ClientID) AdmissionFunc {
	denied := make(map[message.ClientID]bool, len(ids))
	for _, id := range ids {
		denied[id] = true
	}
	return func(m message.MoveNegotiate) error {
		if denied[m.Client] {
			return fmt.Errorf("client %s is not authorized at this broker", m.Client)
		}
		return nil
	}
}

// MaxEntriesAdmission rejects clients carrying more than maxEntries
// subscriptions plus advertisements, bounding the routing state a movement
// can install.
func MaxEntriesAdmission(maxEntries int) AdmissionFunc {
	return func(m message.MoveNegotiate) error {
		if n := len(m.Subs) + len(m.Advs); n > maxEntries {
			return fmt.Errorf("client %s carries %d routing entries, limit %d", m.Client, n, maxEntries)
		}
		return nil
	}
}

// CombineAdmission applies policies in order; the first rejection wins.
func CombineAdmission(fns ...AdmissionFunc) AdmissionFunc {
	return func(m message.MoveNegotiate) error {
		for _, fn := range fns {
			if fn == nil {
				continue
			}
			if err := fn(m); err != nil {
				return err
			}
		}
		return nil
	}
}
