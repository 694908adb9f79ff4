package telemetry

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"minions/internal/sim"
)

func rec(at int64, val float64) Record {
	return Record{At: at, App: "test", Kind: "v", Val: val}
}

func vals(rs []Record) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Val
	}
	return out
}

func TestPipelineFlushDelivers(t *testing.T) {
	var m MemSink
	p := NewPipeline(Config{Spool: 4})
	p.Attach(&m)
	for i := 0; i < 3; i++ {
		p.Publish(rec(int64(i), float64(i)))
	}
	if got := p.Spooled(); got != 3 {
		t.Fatalf("Spooled = %d, want 3", got)
	}
	p.Flush()
	if len(m.Records) != 3 {
		t.Fatalf("sink got %d records, want 3", len(m.Records))
	}
	for i, r := range m.Records {
		if r.At != int64(i) {
			t.Fatalf("record %d out of order: At=%d", i, r.At)
		}
	}
	st := p.Stats()
	if st.Published != 3 || st.Flushed != 3 {
		t.Fatalf("stats = %+v, want published=flushed=3", st)
	}
}

// TestPipelineBlockPolicy: a full spool under Block flushes inline — nothing
// is dropped and order is preserved across the forced flush.
func TestPipelineBlockPolicy(t *testing.T) {
	var m MemSink
	p := NewPipeline(Config{Spool: 4, Policy: Block})
	p.Attach(&m)
	for i := 0; i < 10; i++ {
		p.Publish(rec(int64(i), float64(i)))
	}
	p.Flush()
	if len(m.Records) != 10 {
		t.Fatalf("sink got %d records, want 10", len(m.Records))
	}
	for i, r := range m.Records {
		if r.Val != float64(i) {
			t.Fatalf("records reordered: %v", vals(m.Records))
		}
	}
	st := p.Stats()
	if st.DroppedOldest+st.DroppedNewest != 0 {
		t.Fatalf("Block policy dropped records: %+v", st)
	}
}

func TestPipelineDropOldest(t *testing.T) {
	var m MemSink
	p := NewPipeline(Config{Spool: 4, Policy: DropOldest})
	p.Attach(&m)
	for i := 0; i < 10; i++ {
		p.Publish(rec(int64(i), float64(i)))
	}
	p.Flush()
	want := []float64{6, 7, 8, 9}
	if got := vals(m.Records); len(got) != 4 || got[0] != 6 || got[3] != 9 {
		t.Fatalf("DropOldest kept %v, want %v", got, want)
	}
	if st := p.Stats(); st.DroppedOldest != 6 {
		t.Fatalf("DroppedOldest = %d, want 6", st.DroppedOldest)
	}
}

func TestPipelineDropNewest(t *testing.T) {
	var m MemSink
	p := NewPipeline(Config{Spool: 4, Policy: DropNewest})
	p.Attach(&m)
	for i := 0; i < 10; i++ {
		p.Publish(rec(int64(i), float64(i)))
	}
	p.Flush()
	if got := vals(m.Records); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("DropNewest kept %v, want [0 1 2 3]", got)
	}
	if st := p.Stats(); st.DroppedNewest != 6 {
		t.Fatalf("DroppedNewest = %d, want 6", st.DroppedNewest)
	}
}

// TestPipelineWrapAround exercises the ring seam: drain part of the spool,
// refill past the wrap point, and check order and batch splitting.
func TestPipelineWrapAround(t *testing.T) {
	var m MemSink
	p := NewPipeline(Config{Spool: 4, Batch: 4})
	p.Attach(&m)
	for i := 0; i < 3; i++ {
		p.Publish(rec(int64(i), float64(i)))
	}
	p.Flush()
	for i := 3; i < 7; i++ { // head is now 3; these wrap
		p.Publish(rec(int64(i), float64(i)))
	}
	p.Flush()
	for i, r := range m.Records {
		if r.Val != float64(i) {
			t.Fatalf("wrap-around reordered records: %v", vals(m.Records))
		}
	}
	// The wrapped drain must have split into two contiguous batches.
	if st := p.Stats(); st.Batches != 3 {
		t.Fatalf("Batches = %d, want 3 (1 + 2 across the seam)", st.Batches)
	}
}

func TestPipelineBatchCap(t *testing.T) {
	var m MemSink
	p := NewPipeline(Config{Spool: 8, Batch: 3})
	p.Attach(&m)
	for i := 0; i < 8; i++ {
		p.Publish(rec(int64(i), float64(i)))
	}
	p.Flush()
	if len(m.Records) != 8 {
		t.Fatalf("sink got %d records, want 8", len(m.Records))
	}
	if st := p.Stats(); st.Batches != 3 {
		t.Fatalf("Batches = %d, want 3 (3+3+2)", st.Batches)
	}
}

func TestPipelineIdleIsInert(t *testing.T) {
	p := NewPipeline(Config{Spool: 2, Policy: DropNewest})
	for i := 0; i < 100; i++ {
		p.Publish(rec(int64(i), 0))
	}
	if st := p.Stats(); st != (Stats{}) {
		t.Fatalf("idle pipeline accumulated stats: %+v", st)
	}
	if p.Active() {
		t.Fatal("Active = true with no sinks")
	}
}

// TestPipelineCloseEmitsSelfStats: Close appends one App="telemetry"
// Kind="stats" record carrying the drop counters, then closes sinks.
func TestPipelineCloseEmitsSelfStats(t *testing.T) {
	var m MemSink
	p := NewPipeline(Config{Spool: 2, Policy: DropNewest})
	p.Attach(&m)
	for i := 0; i < 5; i++ {
		p.Publish(rec(int64(i), float64(i)))
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !m.Closed() {
		t.Fatal("Close did not close the sink")
	}
	last := m.Records[len(m.Records)-1]
	if last.App != "telemetry" || last.Kind != "stats" {
		t.Fatalf("last record = %+v, want telemetry/stats", last)
	}
	if last.Val != 3 { // 5 published into spool of 2 under DropNewest
		t.Fatalf("self-stats dropped count = %v, want 3", last.Val)
	}
	if last.Aux[0] != 2 { // published (accepted) records
		t.Fatalf("self-stats published = %d, want 2", last.Aux[0])
	}
}

type failSink struct{ n int }

func (f *failSink) Write([]Record) error { f.n++; return errors.New("sink down") }
func (f *failSink) Close() error         { return nil }

// TestPipelineSinkErrorLatched: a failing sink is counted and latched but
// does not stop delivery to healthy sinks or wedge the spool.
func TestPipelineSinkErrorLatched(t *testing.T) {
	var m MemSink
	var f failSink
	p := NewPipeline(Config{Spool: 4})
	p.Attach(&f)
	p.Attach(&m)
	p.Publish(rec(1, 1))
	p.Flush()
	if p.Err() == nil || !strings.Contains(p.Err().Error(), "sink down") {
		t.Fatalf("Err = %v, want latched sink error", p.Err())
	}
	if len(m.Records) != 1 {
		t.Fatalf("healthy sink got %d records, want 1", len(m.Records))
	}
	if st := p.Stats(); st.SinkErrors != 1 || st.Flushed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFlushEvery: the periodic flusher drains the spool on the virtual
// clock and stops cleanly.
func TestFlushEvery(t *testing.T) {
	eng := sim.New(1)
	var m MemSink
	p := NewPipeline(Config{Spool: 64})
	p.Attach(&m)
	stop := p.FlushEvery(eng, sim.Millisecond)

	eng.Schedule(sim.Time(500*sim.Microsecond), sim.HandlerFunc(func() { p.Publish(rec(1, 1)) }), 0)
	eng.Schedule(sim.Time(1500*sim.Microsecond), sim.HandlerFunc(func() { p.Publish(rec(2, 2)) }), 0)
	eng.RunUntil(sim.Time(2500 * sim.Microsecond))
	if len(m.Records) != 2 {
		t.Fatalf("periodic flush delivered %d records, want 2", len(m.Records))
	}

	stop()
	p.Publish(rec(3, 3))
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	if len(m.Records) != 2 {
		t.Fatal("flusher kept running after stop")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, want := range []Policy{Block, DropOldest, DropNewest} {
		got, err := ParsePolicy(want.String())
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", want.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus policy")
	}
}

func TestUDPSinkFraming(t *testing.T) {
	var frames [][]byte
	w := writerFunc(func(b []byte) (int, error) {
		frames = append(frames, append([]byte(nil), b...))
		return len(b), nil
	})
	u := NewUDPSink(w, 128)
	p := NewPipeline(Config{Spool: 64})
	p.Attach(u)
	for i := 0; i < 10; i++ {
		p.Publish(rec(int64(i), float64(i)))
	}
	p.Flush()
	if err := u.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(frames) == 0 {
		t.Fatal("no datagrams sent")
	}
	var joined bytes.Buffer
	for _, f := range frames {
		if len(f) > 128 {
			t.Fatalf("datagram exceeds MTU: %d bytes", len(f))
		}
		if f[len(f)-1] != '\n' {
			t.Fatal("datagram splits a record (no trailing newline)")
		}
		joined.Write(f)
	}
	lines := strings.Split(strings.TrimRight(joined.String(), "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("reassembled %d records, want 10", len(lines))
	}
	if u.Oversize != 0 {
		t.Fatalf("Oversize = %d, want 0", u.Oversize)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }
