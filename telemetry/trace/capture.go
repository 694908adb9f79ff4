package trace

import (
	"bufio"
	"io"

	"minions/internal/core"
	"minions/internal/host"
	"minions/internal/link"
)

// Capture records every packet transmitted by a set of hosts into a trace
// stream, by subscribing to each host's Transmits. Captured sends include
// instrumented application traffic, the executor's standalone probes and
// probe retries — exactly the injected load. Echo transmissions (a
// destination bouncing a finished standalone TPP home) are skipped by
// design: replay regenerates them in-network, so recording them too would
// double-inject.
//
// Capture is for single-engine runs: transmits from multiple shard
// goroutines would interleave one writer. The testbed runners enforce that;
// Start itself does not know the shard layout.
type Capture struct {
	w       *Writer
	bw      *bufio.Writer
	cancels []func()
	rec     Rec
	err     error

	// Packets counts records written; EchoesSkipped counts the echo
	// transmissions deliberately left out of the trace.
	Packets       uint64
	EchoesSkipped uint64
}

// Start writes the trace header to w and subscribes to every host's
// Transmits. Writes are buffered; Close cancels the subscriptions and
// flushes. Captures compose: several may record the same host at once.
func Start(w io.Writer, hosts ...*host.Host) (*Capture, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	tw, err := NewWriter(bw)
	if err != nil {
		return nil, err
	}
	c := &Capture{w: tw, bw: bw}
	for _, h := range hosts {
		c.cancels = append(c.cancels, h.Transmits().Subscribe(c.record))
	}
	return c, nil
}

// record is the per-transmit subscriber: runs on the simulation goroutine,
// so it copies fixed fields and the TPP bytes into the writer's reused
// buffer and nothing else.
func (c *Capture) record(p *link.Packet) {
	if c.err != nil {
		return
	}
	if p.TPP != nil && p.TPP.Flags()&core.FlagEchoed != 0 {
		c.EchoesSkipped++
		return
	}
	c.rec = Rec{
		At:      int64(p.SentAt),
		Src:     uint32(p.Flow.Src),
		Dst:     uint32(p.Flow.Dst),
		SrcPort: p.Flow.SrcPort,
		DstPort: p.Flow.DstPort,
		Proto:   p.Flow.Proto,
		PathTag: p.PathTag,
		TTL:     p.TTL,
		TFlags:  p.TFlags,
		Seq:     p.Seq,
		Ack:     p.Ack,
		Size:    uint32(p.Size),
		TPP:     p.TPP,
	}
	if p.Standalone {
		c.rec.Flags |= FlagStandalone
	}
	if err := c.w.Write(&c.rec); err != nil {
		c.err = err
		return
	}
	c.Packets++
}

// Close cancels every subscription and flushes buffered records. The
// capture's first write error, if any, is returned (recording stops after
// one, rather than emitting a corrupt stream).
func (c *Capture) Close() error {
	for _, cancel := range c.cancels {
		cancel()
	}
	c.cancels = nil
	if c.err != nil {
		return c.err
	}
	return c.bw.Flush()
}
