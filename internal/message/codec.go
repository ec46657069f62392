package message

import (
	"encoding/binary"
	"fmt"
	"io"

	"padres/internal/predicate"
	"padres/internal/wire"
)

// The envelope wire codec: a compact length-prefixed binary framing that
// replaced the original gob stream. Gob re-sends type descriptors with
// every nested GobEncoder value (each Filter carried a fresh gob stream,
// descriptors and all), so a typical subscribe frame cost hundreds of
// schema bytes per message. The binary codec writes a fixed schema
// identified by a version byte, so a frame costs its payload only and the
// encoder allocates nothing per message beyond buffer growth.
//
// Frame layout (docs/PROTOCOL.md, "Wire codec"):
//
//	frame    := len:uint32-LE payload        (len = payload bytes)
//	payload  := version:byte from:string trace:string
//	            lamport:uvarint seq:uvarint kind:byte body
//
// Bodies are per-kind field sequences using the wire primitives; filters
// and events use the predicate package's compact codec. Strings are
// uvarint-length-prefixed; booleans are one byte.

// Envelope frames a message for the wire together with the sending node,
// which the receiver uses as the message's last hop. Trace carries the
// message's trace identity (TraceOf) when tracing is enabled; it rides the
// wire so a receiving process can continue the hop record. Lamport carries
// the sender's logical clock stamp at transmission time; receivers merge it
// into their own clock so journal records are causally ordered across
// sites, in-process and over TCP alike.
type Envelope struct {
	From    NodeID
	Msg     Message
	Trace   TraceID
	Lamport uint64
	// Seq is the link-level sequence number assigned by the transport
	// reliability layer; 0 marks best-effort traffic outside the
	// ack/retransmit protocol.
	Seq uint64
}

// codecVersion is the frame schema version. Decoders reject frames with a
// different version rather than guessing at field layouts.
const codecVersion = 1

// maxFrame bounds a frame's payload so a corrupt length prefix cannot
// drive an unbounded allocation. Movement-state frames carry buffered
// publications and serialized client state, so the bound is generous.
const maxFrame = 1 << 26

// Encoder writes length-prefixed binary envelope frames to a stream. It
// reuses one scratch buffer across calls; callers serialize access (the
// TCP gateway holds its per-peer write lock around Encode).
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w}
}

// Encode writes one envelope.
func (e *Encoder) Encode(env Envelope) error {
	buf, err := appendFrame(e.buf[:0], env)
	if err != nil {
		return fmt.Errorf("encode %s: %w", kindOf(env.Msg), err)
	}
	e.buf = buf
	if _, err := e.w.Write(buf); err != nil {
		return fmt.Errorf("encode %s: %w", kindOf(env.Msg), err)
	}
	return nil
}

// Decoder reads length-prefixed binary envelope frames from a stream,
// reusing one read buffer across frames. It interns the strings that repeat
// from one publication to the next — the sender, the publishing client, the
// transaction tag, attribute names and string attribute values — in a
// bounded table of its own, so a steady-state Publish costs its PubID, its
// event map and the Message box. The table is receiver-local: the frames
// are the ones Unmarshal reads, and every decoded string is a copy, never a
// view of the read buffer.
type Decoder struct {
	r   io.Reader
	hdr [4]byte
	buf []byte
	in  wire.Interner
}

// decoderKeepBuf is the largest read buffer a Decoder keeps regardless of
// what the stream carries next. A larger one — a movement-state frame may
// reach maxFrame — is given back as soon as a frame needs less than a
// quarter of it, instead of being held for the life of the connection.
const decoderKeepBuf = 1 << 20

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r}
}

// Decode reads one envelope. It returns io.EOF when the stream ends
// cleanly on a frame boundary.
func (d *Decoder) Decode() (Envelope, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return Envelope{}, io.EOF
		}
		return Envelope{}, fmt.Errorf("decode frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(d.hdr[:])
	if n > maxFrame {
		return Envelope{}, fmt.Errorf("decode frame: length %d exceeds bound %d", n, maxFrame)
	}
	if c := cap(d.buf); c < int(n) || (c > decoderKeepBuf && int(n) < c/4) {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		return Envelope{}, fmt.Errorf("decode frame body: %w", err)
	}
	env, rest, err := readPayload(d.buf, &d.in)
	if err != nil {
		return Envelope{}, err
	}
	if len(rest) != 0 {
		return Envelope{}, fmt.Errorf("decode frame: %d trailing bytes", len(rest))
	}
	return env, nil
}

// Marshal serializes one envelope to bytes; the inverse of Unmarshal.
func Marshal(env Envelope) ([]byte, error) {
	return appendFrame(nil, env)
}

// Unmarshal deserializes one envelope from bytes.
func Unmarshal(data []byte) (Envelope, error) {
	if len(data) < 4 {
		return Envelope{}, wire.ErrTruncated
	}
	n := binary.LittleEndian.Uint32(data)
	if int(n) != len(data)-4 {
		return Envelope{}, fmt.Errorf("unmarshal: frame length %d, have %d payload bytes", n, len(data)-4)
	}
	env, rest, err := readPayload(data[4:], nil)
	if err != nil {
		return Envelope{}, err
	}
	if len(rest) != 0 {
		return Envelope{}, fmt.Errorf("unmarshal: %d trailing bytes", len(rest))
	}
	return env, nil
}

// appendFrame appends the length-prefixed frame for env.
func appendFrame(b []byte, env Envelope) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length backpatched below
	b = append(b, codecVersion)
	b = wire.AppendString(b, string(env.From))
	b = wire.AppendString(b, string(env.Trace))
	b = wire.AppendUvarint(b, env.Lamport)
	b = wire.AppendUvarint(b, env.Seq)
	var err error
	b, err = AppendMessage(b, env.Msg)
	if err != nil {
		return nil, err
	}
	n := len(b) - start - 4
	if n > maxFrame {
		return nil, fmt.Errorf("frame length %d exceeds bound %d", n, maxFrame)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// readPayload parses one frame payload (everything after the length
// prefix), returning unconsumed bytes. in is the calling Decoder's intern
// table, nil for the stateless Unmarshal.
func readPayload(b []byte, in *wire.Interner) (Envelope, []byte, error) {
	ver, b, err := wire.Byte(b)
	if err != nil {
		return Envelope{}, nil, err
	}
	if ver != codecVersion {
		return Envelope{}, nil, fmt.Errorf("decode frame: unsupported codec version %d", ver)
	}
	var env Envelope
	from, b, err := in.String(b)
	if err != nil {
		return Envelope{}, nil, err
	}
	trace, b, err := wire.String(b)
	if err != nil {
		return Envelope{}, nil, err
	}
	env.From, env.Trace = NodeID(from), TraceID(trace)
	if env.Lamport, b, err = wire.Uvarint(b); err != nil {
		return Envelope{}, nil, err
	}
	if env.Seq, b, err = wire.Uvarint(b); err != nil {
		return Envelope{}, nil, err
	}
	if env.Msg, b, err = readMessage(b, in); err != nil {
		return Envelope{}, nil, err
	}
	return env, b, nil
}

// kindOf names a message for error text, tolerating nil.
func kindOf(m Message) string {
	if m == nil {
		return "<nil>"
	}
	return m.Kind().String()
}

// AppendMessage appends the compact encoding of m: its kind byte followed
// by the kind's body. Other packages embed messages in their own binary
// payloads with this (the client stub's serialized state carries queued
// publications and pending commands).
func AppendMessage(b []byte, m Message) ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("nil message")
	}
	b = append(b, byte(m.Kind()))
	switch v := m.(type) {
	case Advertise:
		b = wire.AppendString(b, string(v.ID))
		b = wire.AppendString(b, string(v.Client))
		b = appendFilter(b, v.Filter)
		b = wire.AppendString(b, string(v.TxTag))
	case Unadvertise:
		b = wire.AppendString(b, string(v.ID))
		b = wire.AppendString(b, string(v.Client))
		b = wire.AppendString(b, string(v.TxTag))
	case Subscribe:
		b = wire.AppendString(b, string(v.ID))
		b = wire.AppendString(b, string(v.Client))
		b = appendFilter(b, v.Filter)
		b = wire.AppendString(b, string(v.TxTag))
	case Unsubscribe:
		b = wire.AppendString(b, string(v.ID))
		b = wire.AppendString(b, string(v.Client))
		b = wire.AppendString(b, string(v.TxTag))
	case Publish:
		b = appendPublish(b, v)
	case MoveNegotiate:
		b = appendHeader(b, v.MoveHeader)
		b = appendSubEntries(b, v.Subs)
		b = appendAdvEntries(b, v.Advs)
	case MoveApprove:
		b = appendHeader(b, v.MoveHeader)
		b = appendSubEntries(b, v.Subs)
		b = appendAdvEntries(b, v.Advs)
		b = wire.AppendBool(b, v.Reconfigure)
	case MoveReject:
		b = appendHeader(b, v.MoveHeader)
		b = wire.AppendString(b, v.Reason)
	case MoveState:
		b = appendHeader(b, v.MoveHeader)
		b = wire.AppendUvarint(b, uint64(len(v.Buffered)))
		for _, p := range v.Buffered {
			b = appendPublish(b, p)
		}
		b = wire.AppendBytes(b, v.AppState)
	case MoveAck:
		b = appendHeader(b, v.MoveHeader)
		b = wire.AppendBool(b, v.Reconfigure)
		b = wire.AppendUvarint(b, v.Gen)
	case MoveAbort:
		b = appendHeader(b, v.MoveHeader)
		b = wire.AppendString(b, string(v.To))
		b = wire.AppendString(b, v.Reason)
		b = wire.AppendBool(b, v.Reconfigure)
	case MoveQuery:
		b = appendHeader(b, v.MoveHeader)
		b = wire.AppendString(b, string(v.From))
		b = wire.AppendString(b, string(v.At))
	case ReplicateDecision:
		b = appendHeader(b, v.MoveHeader)
		b = wire.AppendString(b, v.Outcome)
		b = wire.AppendUvarint(b, v.Gen)
		b = wire.AppendString(b, string(v.Origin))
		b = wire.AppendString(b, string(v.Replica))
		b = wire.AppendString(b, string(v.Hint))
		b = wire.AppendBool(b, v.Release)
	case ReplicaAck:
		b = appendHeader(b, v.MoveHeader)
		b = wire.AppendUvarint(b, v.Gen)
		b = wire.AppendString(b, string(v.Replica))
		b = wire.AppendString(b, string(v.To))
		b = wire.AppendString(b, v.Outcome)
		b = wire.AppendBool(b, v.Grant)
	case LeaseClaim:
		b = appendHeader(b, v.MoveHeader)
		b = wire.AppendUvarint(b, v.Gen)
		b = wire.AppendString(b, string(v.Claimant))
		b = wire.AppendString(b, string(v.Replica))
	case StandbyResolve:
		b = appendHeader(b, v.MoveHeader)
		b = wire.AppendString(b, v.Outcome)
		b = wire.AppendUvarint(b, v.Gen)
		b = wire.AppendString(b, string(v.Claimant))
		b = wire.AppendString(b, string(v.To))
	case LinkAck:
		b = wire.AppendUvarint(b, v.Cum)
		b = wire.AppendUvarint(b, v.Epoch)
	default:
		return nil, fmt.Errorf("unencodable message type %T", m)
	}
	return b, nil
}

// ReadMessage consumes one message (kind byte + body).
func ReadMessage(b []byte) (Message, []byte, error) { return readMessage(b, nil) }

// readMessage is ReadMessage with a publication's repeating strings taken
// through in (see Decoder).
func readMessage(b []byte, in *wire.Interner) (Message, []byte, error) {
	k, b, err := wire.Byte(b)
	if err != nil {
		return nil, nil, err
	}
	switch Kind(k) {
	case KindAdvertise:
		var m Advertise
		if m.ID, m.Client, m.Filter, m.TxTag, b, err = readFilterMsg[AdvID](b); err != nil {
			return nil, nil, err
		}
		return m, b, nil
	case KindUnadvertise:
		var m Unadvertise
		if m.ID, m.Client, m.TxTag, b, err = readRetractMsg[AdvID](b); err != nil {
			return nil, nil, err
		}
		return m, b, nil
	case KindSubscribe:
		var m Subscribe
		if m.ID, m.Client, m.Filter, m.TxTag, b, err = readFilterMsg[SubID](b); err != nil {
			return nil, nil, err
		}
		return m, b, nil
	case KindUnsubscribe:
		var m Unsubscribe
		if m.ID, m.Client, m.TxTag, b, err = readRetractMsg[SubID](b); err != nil {
			return nil, nil, err
		}
		return m, b, nil
	case KindPublish:
		return readPublishMsg(b, in)
	case KindMoveNegotiate:
		var m MoveNegotiate
		if m.MoveHeader, b, err = readHeader(b); err != nil {
			return nil, nil, err
		}
		if m.Subs, b, err = readSubEntries(b); err != nil {
			return nil, nil, err
		}
		if m.Advs, b, err = readAdvEntries(b); err != nil {
			return nil, nil, err
		}
		return m, b, nil
	case KindMoveApprove:
		var m MoveApprove
		if m.MoveHeader, b, err = readHeader(b); err != nil {
			return nil, nil, err
		}
		if m.Subs, b, err = readSubEntries(b); err != nil {
			return nil, nil, err
		}
		if m.Advs, b, err = readAdvEntries(b); err != nil {
			return nil, nil, err
		}
		if m.Reconfigure, b, err = wire.Bool(b); err != nil {
			return nil, nil, err
		}
		return m, b, nil
	case KindMoveReject:
		var m MoveReject
		if m.MoveHeader, b, err = readHeader(b); err != nil {
			return nil, nil, err
		}
		if m.Reason, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		return m, b, nil
	case KindMoveState:
		var m MoveState
		if m.MoveHeader, b, err = readHeader(b); err != nil {
			return nil, nil, err
		}
		n, rest, err := wire.Count(b, 4) // id, client, event, tag
		if err != nil {
			return nil, nil, err
		}
		b = rest
		if n > 0 {
			m.Buffered = make([]Publish, 0, n)
			for i := 0; i < n; i++ {
				var p Publish
				if p, b, err = readPublish(b, in); err != nil {
					return nil, nil, err
				}
				m.Buffered = append(m.Buffered, p)
			}
		}
		if m.AppState, b, err = wire.Bytes(b); err != nil {
			return nil, nil, err
		}
		return m, b, nil
	case KindMoveAck:
		var m MoveAck
		if m.MoveHeader, b, err = readHeader(b); err != nil {
			return nil, nil, err
		}
		if m.Reconfigure, b, err = wire.Bool(b); err != nil {
			return nil, nil, err
		}
		if m.Gen, b, err = wire.Uvarint(b); err != nil {
			return nil, nil, err
		}
		return m, b, nil
	case KindMoveAbort:
		var m MoveAbort
		if m.MoveHeader, b, err = readHeader(b); err != nil {
			return nil, nil, err
		}
		var to string
		if to, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		m.To = BrokerID(to)
		if m.Reason, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		if m.Reconfigure, b, err = wire.Bool(b); err != nil {
			return nil, nil, err
		}
		return m, b, nil
	case KindMoveQuery:
		var m MoveQuery
		if m.MoveHeader, b, err = readHeader(b); err != nil {
			return nil, nil, err
		}
		var from, at string
		if from, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		if at, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		m.From, m.At = BrokerID(from), BrokerID(at)
		return m, b, nil
	case KindReplicateDecision:
		var m ReplicateDecision
		if m.MoveHeader, b, err = readHeader(b); err != nil {
			return nil, nil, err
		}
		if m.Outcome, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		if m.Gen, b, err = wire.Uvarint(b); err != nil {
			return nil, nil, err
		}
		var origin, replica, hint string
		if origin, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		if replica, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		if hint, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		m.Origin, m.Replica, m.Hint = BrokerID(origin), BrokerID(replica), BrokerID(hint)
		if m.Release, b, err = wire.Bool(b); err != nil {
			return nil, nil, err
		}
		return m, b, nil
	case KindReplicaAck:
		var m ReplicaAck
		if m.MoveHeader, b, err = readHeader(b); err != nil {
			return nil, nil, err
		}
		if m.Gen, b, err = wire.Uvarint(b); err != nil {
			return nil, nil, err
		}
		var replica, to string
		if replica, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		if to, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		m.Replica, m.To = BrokerID(replica), BrokerID(to)
		if m.Outcome, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		if m.Grant, b, err = wire.Bool(b); err != nil {
			return nil, nil, err
		}
		return m, b, nil
	case KindLeaseClaim:
		var m LeaseClaim
		if m.MoveHeader, b, err = readHeader(b); err != nil {
			return nil, nil, err
		}
		if m.Gen, b, err = wire.Uvarint(b); err != nil {
			return nil, nil, err
		}
		var claimant, replica string
		if claimant, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		if replica, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		m.Claimant, m.Replica = BrokerID(claimant), BrokerID(replica)
		return m, b, nil
	case KindStandbyResolve:
		var m StandbyResolve
		if m.MoveHeader, b, err = readHeader(b); err != nil {
			return nil, nil, err
		}
		if m.Outcome, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		if m.Gen, b, err = wire.Uvarint(b); err != nil {
			return nil, nil, err
		}
		var claimant, to string
		if claimant, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		if to, b, err = wire.String(b); err != nil {
			return nil, nil, err
		}
		m.Claimant, m.To = BrokerID(claimant), BrokerID(to)
		return m, b, nil
	case KindLinkAck:
		var m LinkAck
		if m.Cum, b, err = wire.Uvarint(b); err != nil {
			return nil, nil, err
		}
		if m.Epoch, b, err = wire.Uvarint(b); err != nil {
			return nil, nil, err
		}
		return m, b, nil
	default:
		return nil, nil, fmt.Errorf("unknown message kind %d", k)
	}
}

// appendFilter appends a nil-able filter: a presence byte then the
// predicate codec's compact filter form.
func appendFilter(b []byte, f *predicate.Filter) []byte {
	if f == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	return f.AppendBinary(b)
}

func readFilter(b []byte) (*predicate.Filter, []byte, error) {
	present, b, err := wire.Byte(b)
	if err != nil {
		return nil, nil, err
	}
	if present == 0 {
		return nil, b, nil
	}
	return predicate.ReadFilter(b)
}

func appendPublish(b []byte, p Publish) []byte {
	b = wire.AppendString(b, string(p.ID))
	b = wire.AppendString(b, string(p.Client))
	b = predicate.AppendEvent(b, p.Event)
	return wire.AppendString(b, string(p.TxTag))
}

func readPublish(b []byte, in *wire.Interner) (Publish, []byte, error) {
	var p Publish
	id, b, err := wire.String(b)
	if err != nil {
		return Publish{}, nil, err
	}
	client, b, err := in.String(b)
	if err != nil {
		return Publish{}, nil, err
	}
	p.ID, p.Client = PubID(id), ClientID(client)
	if p.Event, b, err = predicate.ReadEventInterned(b, in); err != nil {
		return Publish{}, nil, err
	}
	tag, b, err := in.String(b)
	if err != nil {
		return Publish{}, nil, err
	}
	p.TxTag = TxID(tag)
	return p, b, nil
}

func readPublishMsg(b []byte, in *wire.Interner) (Message, []byte, error) {
	p, b, err := readPublish(b, in)
	if err != nil {
		return nil, nil, err
	}
	return p, b, nil
}

// readFilterMsg reads the shared body of Advertise/Subscribe.
func readFilterMsg[ID ~string](b []byte) (ID, ClientID, *predicate.Filter, TxID, []byte, error) {
	id, b, err := wire.String(b)
	if err != nil {
		return "", "", nil, "", nil, err
	}
	client, b, err := wire.String(b)
	if err != nil {
		return "", "", nil, "", nil, err
	}
	f, b, err := readFilter(b)
	if err != nil {
		return "", "", nil, "", nil, err
	}
	tag, b, err := wire.String(b)
	if err != nil {
		return "", "", nil, "", nil, err
	}
	return ID(id), ClientID(client), f, TxID(tag), b, nil
}

// readRetractMsg reads the shared body of Unadvertise/Unsubscribe.
func readRetractMsg[ID ~string](b []byte) (ID, ClientID, TxID, []byte, error) {
	id, b, err := wire.String(b)
	if err != nil {
		return "", "", "", nil, err
	}
	client, b, err := wire.String(b)
	if err != nil {
		return "", "", "", nil, err
	}
	tag, b, err := wire.String(b)
	if err != nil {
		return "", "", "", nil, err
	}
	return ID(id), ClientID(client), TxID(tag), b, nil
}

func appendHeader(b []byte, h MoveHeader) []byte {
	b = wire.AppendString(b, string(h.Tx))
	b = wire.AppendString(b, string(h.Client))
	b = wire.AppendString(b, string(h.Source))
	return wire.AppendString(b, string(h.Target))
}

func readHeader(b []byte) (MoveHeader, []byte, error) {
	var h MoveHeader
	tx, b, err := wire.String(b)
	if err != nil {
		return MoveHeader{}, nil, err
	}
	client, b, err := wire.String(b)
	if err != nil {
		return MoveHeader{}, nil, err
	}
	src, b, err := wire.String(b)
	if err != nil {
		return MoveHeader{}, nil, err
	}
	dst, b, err := wire.String(b)
	if err != nil {
		return MoveHeader{}, nil, err
	}
	h.Tx, h.Client, h.Source, h.Target = TxID(tx), ClientID(client), BrokerID(src), BrokerID(dst)
	return h, b, nil
}

func appendSubEntries(b []byte, subs []SubEntry) []byte {
	b = wire.AppendUvarint(b, uint64(len(subs)))
	for _, s := range subs {
		b = wire.AppendString(b, string(s.ID))
		b = appendFilter(b, s.Filter)
	}
	return b
}

func readSubEntries(b []byte) ([]SubEntry, []byte, error) {
	n, b, err := wire.Count(b, 2) // id, filter presence
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]SubEntry, 0, n)
	for i := 0; i < n; i++ {
		id, rest, err := wire.String(b)
		if err != nil {
			return nil, nil, err
		}
		f, rest, err := readFilter(rest)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, SubEntry{ID: SubID(id), Filter: f})
		b = rest
	}
	return out, b, nil
}

func appendAdvEntries(b []byte, advs []AdvEntry) []byte {
	b = wire.AppendUvarint(b, uint64(len(advs)))
	for _, a := range advs {
		b = wire.AppendString(b, string(a.ID))
		b = appendFilter(b, a.Filter)
	}
	return b
}

func readAdvEntries(b []byte) ([]AdvEntry, []byte, error) {
	n, b, err := wire.Count(b, 2) // id, filter presence
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]AdvEntry, 0, n)
	for i := 0; i < n; i++ {
		id, rest, err := wire.String(b)
		if err != nil {
			return nil, nil, err
		}
		f, rest, err := readFilter(rest)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, AdvEntry{ID: AdvID(id), Filter: f})
		b = rest
	}
	return out, b, nil
}
