// Package trace defines the versioned binary format for recorded TPP
// packet traces, the capture hook that writes one from a live simulation,
// and the replay that re-injects one into a rebuilt network.
//
// A trace is a stream of transmit events: every packet a host's shim
// handed to its NIC, with the full TPP section bytes as they left the
// host. Captured traces are decoded by cmd/tppdump and replayed as a
// deterministic traffic source by Replay — the same network fed the same
// trace reproduces the original run packet for packet.
//
// # Wire format
//
// All integers are big-endian. A trace is one 16-byte file header followed
// by records:
//
//	offset  size  field
//	0       8     magic "TPPTRACE"
//	8       1     version (currently 1)
//	9       1     flags (reserved, 0)
//	10      2     record header length (currently 40)
//	12      4     reserved (0)
//
// Each record is a fixed 40-byte header followed by the TPP bytes:
//
//	offset  size  field
//	0       8     at — transmit time, simulation ns
//	8       4     src node ID
//	12      4     dst node ID
//	16      2     src port
//	18      2     dst port
//	20      1     IP protocol
//	21      1     record flags (bit 0: standalone probe)
//	22      2     path tag
//	24      1     TTL
//	25      1     transport flags
//	26      4     seq
//	30      4     ack
//	34      4     size — wire bytes including any TPP
//	38      2     TPP length in bytes (0 = no TPP)
//	40      —     TPP section bytes
//
// The record header length lives in the file header so readers can skip
// fields appended by future versions; golden tests pin version 1 byte for
// byte.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Format constants, pinned by the golden-file tests.
const (
	Version   = 1
	headerLen = 16
	recHdrLen = 40
)

var magic = [8]byte{'T', 'P', 'P', 'T', 'R', 'A', 'C', 'E'}

// Record flag bits.
const (
	// FlagStandalone marks a probe packet existing only to carry its TPP.
	FlagStandalone = 1 << 0
)

// Rec is one decoded trace record: a packet transmit event. TPP aliases
// the reader's internal buffer and is valid until the next Read — copy to
// retain.
type Rec struct {
	At      int64  // transmit time, simulation ns
	Src     uint32 // source node ID
	Dst     uint32 // destination node ID
	SrcPort uint16
	DstPort uint16
	Proto   uint8
	Flags   uint8 // FlagStandalone
	PathTag uint16
	TTL     uint8
	TFlags  uint8 // transport flags
	Seq     uint32
	Ack     uint32
	Size    uint32 // wire bytes, including the TPP
	TPP     []byte // raw TPP section, nil when the packet carried none
}

// Standalone reports whether the record is a standalone probe.
func (r *Rec) Standalone() bool { return r.Flags&FlagStandalone != 0 }

// Writer encodes records to an io.Writer. The file header is written by
// NewWriter; each Write issues exactly one underlying Write call from a
// reused buffer, so wrapping w in a *bufio.Writer gives batched I/O with
// zero allocations per record in steady state.
type Writer struct {
	w   io.Writer
	buf []byte
	n   uint64
}

// NewWriter writes the trace file header and returns the record writer.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [headerLen]byte
	copy(hdr[:8], magic[:])
	hdr[8] = Version
	binary.BigEndian.PutUint16(hdr[10:12], recHdrLen)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: w, buf: make([]byte, 0, 256)}, nil
}

// Write appends one record.
func (tw *Writer) Write(r *Rec) error {
	if len(r.TPP) > 0xFFFF {
		return fmt.Errorf("trace: TPP of %d bytes exceeds format limit", len(r.TPP))
	}
	b := tw.buf[:recHdrLen]
	binary.BigEndian.PutUint64(b[0:8], uint64(r.At))
	binary.BigEndian.PutUint32(b[8:12], r.Src)
	binary.BigEndian.PutUint32(b[12:16], r.Dst)
	binary.BigEndian.PutUint16(b[16:18], r.SrcPort)
	binary.BigEndian.PutUint16(b[18:20], r.DstPort)
	b[20] = r.Proto
	b[21] = r.Flags
	binary.BigEndian.PutUint16(b[22:24], r.PathTag)
	b[24] = r.TTL
	b[25] = r.TFlags
	binary.BigEndian.PutUint32(b[26:30], r.Seq)
	binary.BigEndian.PutUint32(b[30:34], r.Ack)
	binary.BigEndian.PutUint32(b[34:38], r.Size)
	binary.BigEndian.PutUint16(b[38:40], uint16(len(r.TPP)))
	b = append(b, r.TPP...)
	tw.buf = b[:0]
	if _, err := tw.w.Write(b); err != nil {
		return err
	}
	tw.n++
	return nil
}

// Count returns the number of records written.
func (tw *Writer) Count() uint64 { return tw.n }

// Errors returned by Reader.
var (
	ErrBadMagic   = errors.New("trace: not a TPPTRACE file")
	ErrBadVersion = errors.New("trace: unsupported version")
)

// Magic reports whether b begins with the trace file magic — the sniff
// cmd/tppdump uses to tell a binary trace from hex text.
func Magic(b []byte) bool {
	return len(b) >= 8 && string(b[:8]) == string(magic[:])
}

// Reader decodes a trace stream. Records are read one at a time into a
// caller-held Rec whose TPP buffer the reader reuses.
type Reader struct {
	r      io.Reader
	recHdr int
	hdr    [recHdrLen]byte
	extra  []byte // future-version header fields beyond what we decode
	tpp    []byte
	n      uint64
}

// NewReader validates the file header and returns the record reader. Files
// written by a future version with a longer record header decode fine: the
// extra header bytes are skipped.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated header", ErrBadMagic)
		}
		return nil, err
	}
	if !Magic(hdr[:]) {
		return nil, ErrBadMagic
	}
	if hdr[8] != Version {
		return nil, fmt.Errorf("%w: %d (reader supports %d)", ErrBadVersion, hdr[8], Version)
	}
	rh := int(binary.BigEndian.Uint16(hdr[10:12]))
	if rh < recHdrLen {
		return nil, fmt.Errorf("trace: record header length %d shorter than format minimum %d", rh, recHdrLen)
	}
	tr := &Reader{r: r, recHdr: rh}
	if rh > recHdrLen {
		tr.extra = make([]byte, rh-recHdrLen)
	}
	return tr, nil
}

// Read decodes the next record into rec. It returns io.EOF at a clean end
// of stream and io.ErrUnexpectedEOF for a record cut short.
func (tr *Reader) Read(rec *Rec) error {
	if _, err := io.ReadFull(tr.r, tr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("trace: record %d header cut short: %w", tr.n, io.ErrUnexpectedEOF)
		}
		return err
	}
	if tr.extra != nil {
		if _, err := io.ReadFull(tr.r, tr.extra); err != nil {
			return fmt.Errorf("trace: record %d header cut short: %w", tr.n, io.ErrUnexpectedEOF)
		}
	}
	b := tr.hdr[:]
	rec.At = int64(binary.BigEndian.Uint64(b[0:8]))
	rec.Src = binary.BigEndian.Uint32(b[8:12])
	rec.Dst = binary.BigEndian.Uint32(b[12:16])
	rec.SrcPort = binary.BigEndian.Uint16(b[16:18])
	rec.DstPort = binary.BigEndian.Uint16(b[18:20])
	rec.Proto = b[20]
	rec.Flags = b[21]
	rec.PathTag = binary.BigEndian.Uint16(b[22:24])
	rec.TTL = b[24]
	rec.TFlags = b[25]
	rec.Seq = binary.BigEndian.Uint32(b[26:30])
	rec.Ack = binary.BigEndian.Uint32(b[30:34])
	rec.Size = binary.BigEndian.Uint32(b[34:38])
	tppLen := int(binary.BigEndian.Uint16(b[38:40]))
	if tppLen == 0 {
		rec.TPP = nil
	} else {
		if cap(tr.tpp) < tppLen {
			tr.tpp = make([]byte, tppLen)
		}
		rec.TPP = tr.tpp[:tppLen]
		if _, err := io.ReadFull(tr.r, rec.TPP); err != nil {
			return fmt.Errorf("trace: record %d TPP cut short: %w", tr.n, io.ErrUnexpectedEOF)
		}
	}
	tr.n++
	return nil
}

// Count returns the number of records read so far.
func (tr *Reader) Count() uint64 { return tr.n }

// ReadAll decodes every remaining record, with TPP bytes copied out so the
// results are independently owned — the convenience path for tools and
// tests, not replay hot loops.
func ReadAll(r io.Reader) ([]Rec, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []Rec
	for {
		var rec Rec
		err := tr.Read(&rec)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if rec.TPP != nil {
			rec.TPP = append([]byte(nil), rec.TPP...)
		}
		out = append(out, rec)
	}
}
