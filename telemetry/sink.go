package telemetry

import (
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// Sink receives flushed record batches. Write is called on the flushing
// goroutine with a slice that aliases the pipeline's ring — a sink must
// consume it before returning and must not retain it. Close flushes any
// sink-local buffering and releases resources.
type Sink interface {
	Write(batch []Record) error
	Close() error
}

// MemSink buffers every flushed record in memory — the sink for tests and
// for experiments that post-process records in process.
type MemSink struct {
	Records []Record
	closed  bool
}

// Write implements Sink by appending copies of the batch.
func (m *MemSink) Write(batch []Record) error {
	m.Records = append(m.Records, batch...)
	return nil
}

// Close implements Sink.
func (m *MemSink) Close() error { m.closed = true; return nil }

// Closed reports whether Close was called (for pipeline-lifecycle tests).
func (m *MemSink) Closed() bool { return m.closed }

// NDJSONSink renders records as newline-delimited JSON, one object per
// line, into an io.Writer. The schema is pinned by golden tests and is a
// stable interop surface:
//
//	{"at":1500000,"app":"microburst","kind":"sample","node":12,"val":0.75,"aux":[3,0,0]}
//
// with an optional trailing "note" member when Record.Note is non-empty.
// Numbers are rendered with strconv (shortest round-trippable float form),
// never via reflection, and the line buffer is reused across batches, so
// encoding settles to zero allocations per record.
type NDJSONSink struct {
	w   io.Writer
	buf []byte
}

// NewNDJSONSink creates an NDJSON sink writing to w. If w implements
// interface{ Flush() error } (e.g. *bufio.Writer), Close flushes it; the
// underlying writer is never closed by the sink.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{w: w, buf: make([]byte, 0, 4096)}
}

// Write implements Sink: one JSON line per record, one io.Writer call per
// batch.
func (s *NDJSONSink) Write(batch []Record) error {
	s.buf = s.buf[:0]
	for i := range batch {
		s.buf = AppendRecordJSON(s.buf, &batch[i])
		s.buf = append(s.buf, '\n')
	}
	_, err := s.w.Write(s.buf)
	return err
}

// Close implements Sink, flushing the underlying writer when it can.
func (s *NDJSONSink) Close() error {
	if f, ok := s.w.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// AppendRecordJSON appends r's pinned NDJSON object (without newline) to
// dst and returns the extended slice, allocating only when dst must grow.
// It is exported so tools (cmd/tppdump) render records byte-identically to
// the sink.
func AppendRecordJSON(dst []byte, r *Record) []byte {
	dst = append(dst, `{"at":`...)
	dst = strconv.AppendInt(dst, r.At, 10)
	dst = append(dst, `,"app":`...)
	dst = appendJSONString(dst, r.App)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, r.Kind)
	dst = append(dst, `,"node":`...)
	dst = strconv.AppendUint(dst, r.Node, 10)
	dst = append(dst, `,"val":`...)
	// Small integral values (the common case for counters and occupancies)
	// render identically to 'g' formatting via the much cheaper integer
	// path. The bound is where 'g' switches to exponent form (1e6 for
	// shortest-form precision), and negative zero must take the float path
	// to keep its sign.
	if iv := int64(r.Val); r.Val == float64(iv) && iv > -1e6 && iv < 1e6 &&
		!(iv == 0 && math.Signbit(r.Val)) {
		dst = strconv.AppendInt(dst, iv, 10)
	} else {
		dst = strconv.AppendFloat(dst, r.Val, 'g', -1, 64)
	}
	dst = append(dst, `,"aux":[`...)
	for i, a := range r.Aux {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, a, 10)
	}
	dst = append(dst, ']')
	if r.Note != "" {
		dst = append(dst, `,"note":`...)
		dst = appendJSONString(dst, r.Note)
	}
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string literal. The fast path copies
// plain ASCII unescaped; anything needing escapes takes the rune-by-rune
// path. Producers on hot paths use constant App/Kind values, which the fast
// path handles without a branch per byte beyond the scan.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	plain := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			plain = false
			break
		}
	}
	if plain {
		dst = append(dst, s...)
		return append(dst, '"')
	}
	for _, r := range s {
		switch {
		case r == '"':
			dst = append(dst, '\\', '"')
		case r == '\\':
			dst = append(dst, '\\', '\\')
		case r == '\n':
			dst = append(dst, '\\', 'n')
		case r == '\r':
			dst = append(dst, '\\', 'r')
		case r == '\t':
			dst = append(dst, '\\', 't')
		case r < 0x20:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xf])
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return append(dst, '"')
}

// UDPSink frames NDJSON record lines into datagram-sized payloads: each
// Write to the underlying writer carries as many whole lines as fit in MTU
// bytes, never splitting a record across datagrams, mirroring how a
// collector would receive them off the wire. It works over any io.Writer —
// a *net.UDPConn in live use, a byte-slice recorder in tests — and counts
// datagrams and oversized records.
type UDPSink struct {
	w   io.Writer
	mtu int
	buf []byte
	rec []byte

	// Datagrams counts writes issued; Oversize counts records whose single
	// line exceeded the MTU and were sent alone in an over-MTU datagram
	// rather than dropped silently.
	Datagrams uint64
	Oversize  uint64
}

// DefaultMTU is the default UDP payload budget: 1500-byte Ethernet minus
// IPv4 and UDP headers.
const DefaultMTU = 1472

// NewUDPSink creates a datagram-framing sink over w. mtu <= 0 selects
// DefaultMTU.
func NewUDPSink(w io.Writer, mtu int) *UDPSink {
	if mtu <= 0 {
		mtu = DefaultMTU
	}
	return &UDPSink{w: w, mtu: mtu, buf: make([]byte, 0, mtu)}
}

// Write implements Sink: records are packed into MTU-bounded datagrams and
// any partial datagram is held for the next batch (Close sends it).
func (u *UDPSink) Write(batch []Record) error {
	for i := range batch {
		u.rec = AppendRecordJSON(u.rec[:0], &batch[i])
		u.rec = append(u.rec, '\n')
		if len(u.buf)+len(u.rec) > u.mtu && len(u.buf) > 0 {
			if err := u.send(); err != nil {
				return err
			}
		}
		if len(u.rec) > u.mtu {
			u.Oversize++
		}
		u.buf = append(u.buf, u.rec...)
		if len(u.buf) >= u.mtu {
			if err := u.send(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (u *UDPSink) send() error {
	u.Datagrams++
	_, err := u.w.Write(u.buf)
	u.buf = u.buf[:0]
	return err
}

// Close implements Sink, sending any partial datagram.
func (u *UDPSink) Close() error {
	if len(u.buf) > 0 {
		return u.send()
	}
	return nil
}
