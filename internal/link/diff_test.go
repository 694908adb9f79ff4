package link

// Differential tests: Link (txDone elided on idle lines) against the
// two-event oracle in oracle_test.go. A byte script picks a link config and
// a sequence of enqueues, bursts, SetDown flips and reads at adversarial
// instants — including one tick before, exactly at and one tick after the
// end of the current serialization — optionally under a TxFault that drops
// and stalls. Both models must produce the same deliveries, the same drops
// and FilterTx calls at the same instants in the same order, and the same
// Stats, queue occupancy, utilization and Pending() after every operation.
//
// Operations run after the link's own events of the same instant (the
// driver re-schedules itself once on arrival, so its key has ins = now,
// later than any txDone's). That is the order Link resolves a tie at
// exactly lineFree in — "the elided txDone has already fired" — and the
// only order in which a harness outside the engine's tie-break can compare
// the two models: an operation that sorted before the oracle's txDone would
// see its line still busy for the rest of that instant.

import (
	"fmt"
	"math/rand"
	"testing"

	"minions/internal/sim"
)

// linkModel is what the harness drives: *Link and *oracleLink.
type linkModel interface {
	sim.Handler
	Enqueue(p *Packet) bool
	SetDown(down bool)
	SetTxFault(f TxFault)
	Stats() Stats
	QueueLenPackets() int
	QueueLenBytes() int
	UtilPermille() uint32
	ArrivalUtilPermille() uint32
	Pending() bool
}

const (
	opEnqueue = iota
	opBurst
	opDown
	opUp
	opSample
)

// diffOp is one scripted operation. when selects its instant: 0 = delta
// after the previous operation, 1/2/3 = lineFree-1/+0/+1 of the current
// serialization (falling back to delta when that is already past).
type diffOp struct {
	kind  int
	when  int
	delta sim.Time
	size  int
}

type diffScript struct {
	cfg      Config
	fault    bool
	dropPm   int
	stallPm  int
	stallMax sim.Time
	ops      []diffOp
}

// diffHeader is the number of leading script bytes that pick the config.
// Byte 3 and the last one are spare; shrinking the header would re-decode
// every corpus entry into a different script.
const diffHeader = 7

// decodeScript maps arbitrary bytes onto a script; every input is valid.
func decodeScript(data []byte) diffScript {
	var hdr [diffHeader]byte
	copy(hdr[:], data)
	pick := func(b byte, vals ...int64) int64 { return vals[int(b)%len(vals)] }
	sc := diffScript{
		cfg: Config{
			// 8 Gb/s is one byte per ns, so sizes and deltas of the same
			// magnitude collide at exact serialization ends by chance too.
			RateBps:    pick(hdr[0], 8_000_000_000, 1_000_000_000, 100_000_000, 1_000_000, 1<<60),
			Delay:      sim.Time(pick(hdr[1], 0, 1, 7, 100, 5_000, 1_000_000)),
			QueueBytes: int(pick(hdr[2], 64, 300, 1500, 4000, 0)),
		},
	}
	if hdr[4]%4 != 0 {
		sc.fault = true
		sc.dropPm = int(pick(hdr[4]>>2, 0, 50, 300))
		sc.stallPm = int(pick(hdr[4]>>4, 0, 100, 500))
		sc.stallMax = sim.Time(pick(hdr[4]>>6, 3, 40, 2000))
	}
	scale := sim.Time(pick(hdr[5], 1, 8, 100, 10_000))
	sizeMul := int(pick(hdr[5]>>2, 1, 6))
	if len(data) > diffHeader {
		data = data[diffHeader:]
	} else {
		data = nil
	}
	for ; len(data) >= 3 && len(sc.ops) < 400; data = data[3:] {
		o := diffOp{
			kind:  [8]int{opEnqueue, opEnqueue, opEnqueue, opEnqueue, opBurst, opDown, opUp, opSample}[data[0]&7],
			delta: sim.Time(data[1]) * scale,
			size:  1 + int(data[2])*sizeMul,
		}
		switch w := (data[0] >> 3) & 7; {
		case w >= 4 && w <= 6:
			o.when = int(w) - 3
		case w == 7:
			o.delta = 0
		}
		sc.ops = append(sc.ops, o)
	}
	return sc
}

// diffRec is one logged observation; whole records compare with ==.
type diffRec struct {
	at   sim.Time
	kind byte // 'o' after-op sample, 'S' stats, 'd' drop, 'f' FilterTx, 'r' delivery
	id   uint64
	v    [6]uint64
}

func (r diffRec) String() string {
	return fmt.Sprintf("t=%d %c id=%d %v", r.at, r.kind, r.id, r.v)
}

// diffCover counts the corner cases a batch of scripts actually reached, so
// the test can refuse to pass vacuously.
type diffCover struct {
	enqAtLineFree, downMidTx, downAtLineFree, upBeforeDeparture, voided int
}

func (c *diffCover) add(o diffCover) {
	c.enqAtLineFree += o.enqAtLineFree
	c.downMidTx += o.downMidTx
	c.downAtLineFree += o.downAtLineFree
	c.upBeforeDeparture += o.upBeforeDeparture
	c.voided += o.voided
}

// diffRun drives one model through one script.
type diffRun struct {
	sc   *diffScript
	eng  *sim.Engine
	m    linkModel
	pool *Pool
	rng  *rand.Rand // fault stream: diverges if FilterTx call order does

	// lineFree is the harness's own reckoning of when the current
	// serialization ends, for aiming operations at it.
	lineFree sim.Time
	downAt   sim.Time // instant of the last SetDown(true) mid-serialization, or -1
	inOp     bool
	nextID   uint64
	events   int

	log []diffRec // ops, drops and FilterTx calls, in engine order
	rx  []diffRec // deliveries (own log: at Delay 0 they tie with ops)
	cov diffCover
}

func (d *diffRun) txTime(size int) sim.Time {
	t := sim.Time(int64(size) * 8 * int64(sim.Second) / d.sc.cfg.RateBps)
	if t < 1 {
		t = 1
	}
	return t
}

func (d *diffRun) Receive(p *Packet, port int) {
	if p == nil {
		panic("link delivered a nil packet")
	}
	d.rx = append(d.rx, diffRec{at: d.eng.Now(), kind: 'r', id: p.ID, v: [6]uint64{uint64(port), uint64(p.Size)}})
	p.Release()
}

func (d *diffRun) onDrop(p *Packet, reason DropReason) {
	d.log = append(d.log, diffRec{at: d.eng.Now(), kind: 'd', id: p.ID, v: [6]uint64{uint64(reason), uint64(p.Size)}})
	if reason == DropLinkDown && !d.inOp {
		d.cov.voided++ // dropped by txDone: went down mid-serialization
	}
}

func (d *diffRun) FilterTx(p *Packet) (bool, sim.Time) {
	drop := d.rng.Intn(1000) < d.sc.dropPm
	var stall sim.Time
	if !drop && d.rng.Intn(1000) < d.sc.stallPm {
		stall = 1 + sim.Time(d.rng.Int63n(int64(d.sc.stallMax)))
	}
	b := uint64(0)
	if drop {
		b = 1
	} else {
		d.lineFree = d.eng.Now() + d.txTime(p.Size) + stall
	}
	d.log = append(d.log, diffRec{at: d.eng.Now(), kind: 'f', id: p.ID, v: [6]uint64{b, uint64(stall)}})
	return drop, stall
}

func (d *diffRun) enqueue(size int) uint64 {
	p := d.pool.Get()
	d.nextID++
	p.ID, p.Size = d.nextID, size
	before := d.m.Stats().TxPackets
	if !d.m.Enqueue(p) {
		return 0
	}
	if !d.sc.fault && d.m.Stats().TxPackets > before {
		d.lineFree = d.eng.Now() + d.txTime(size) // started on an idle line
	}
	return 1
}

// Handle is the driver: arg = op index<<1 | stage. Stage 0 arrives at the
// op's instant and re-schedules stage 1 at the same instant, which runs the
// op after every link event of that instant, then books the next op.
func (d *diffRun) Handle(arg uint64) {
	if arg&1 == 0 {
		d.eng.Schedule(d.eng.Now(), d, arg|1)
		return
	}
	i := int(arg >> 1)
	o := d.sc.ops[i]
	now := d.eng.Now()
	d.inOp = true
	var accepted uint64
	switch o.kind {
	case opEnqueue:
		if now == d.lineFree {
			d.cov.enqAtLineFree++
		}
		accepted = d.enqueue(o.size)
	case opBurst:
		for k := 0; k < 2+o.size%3; k++ {
			accepted = accepted<<1 | d.enqueue(1+(o.size*(k+1))%1500)
		}
	case opDown:
		switch {
		case now < d.lineFree:
			d.cov.downMidTx++
			d.downAt = now
		case now == d.lineFree:
			d.cov.downAtLineFree++
		}
		d.m.SetDown(true)
	case opUp:
		if d.downAt >= 0 && now < d.lineFree {
			d.cov.upBeforeDeparture++
		}
		d.downAt = -1
		d.m.SetDown(false)
	}
	d.inOp = false
	pending := uint64(0)
	if d.m.Pending() {
		pending = 1
	}
	st := d.m.Stats()
	d.log = append(d.log,
		diffRec{at: now, kind: 'o', id: uint64(i), v: [6]uint64{
			uint64(d.m.QueueLenPackets()), uint64(d.m.QueueLenBytes()),
			uint64(d.m.UtilPermille()), uint64(d.m.ArrivalUtilPermille()), pending, accepted}},
		diffRec{at: now, kind: 'S', id: uint64(i), v: [6]uint64{
			st.TxBytes, st.TxPackets, st.RxBytes, st.RxPackets, st.DropBytes, st.DropPackets}})

	if i+1 == len(d.sc.ops) {
		return
	}
	next := d.sc.ops[i+1]
	at := now + next.delta
	if next.when != 0 {
		if aim := d.lineFree + sim.Time(next.when) - 2; aim >= now {
			at = aim
		}
	}
	d.eng.Schedule(at, d, uint64(i+1)<<1)
}

// runDiff plays the script on a fresh engine against the model mk builds.
func runDiff(sc *diffScript, mk func(*sim.Engine, Config, Receiver, func(*Packet, DropReason)) linkModel) *diffRun {
	d := &diffRun{sc: sc, eng: sim.New(1), pool: NewPool(), rng: rand.New(rand.NewSource(7)), downAt: -1}
	d.m = mk(d.eng, sc.cfg, d, d.onDrop)
	if sc.fault {
		d.m.SetTxFault(d)
	}
	if len(sc.ops) > 0 {
		d.eng.Schedule(sc.ops[0].delta, d, 0)
	}
	d.events = d.eng.Run()
	return d
}

func mkLink(eng *sim.Engine, cfg Config, dst Receiver, onDrop func(*Packet, DropReason)) linkModel {
	l := New(eng, cfg, dst, 5)
	l.DropEvents().Subscribe(func(ev DropEvent) { onDrop(ev.Packet, ev.Reason) })
	return l
}

func mkOracle(eng *sim.Engine, cfg Config, dst Receiver, onDrop func(*Packet, DropReason)) linkModel {
	l := newOracle(eng, cfg, dst, 5)
	l.onDrop = onDrop
	return l
}

func diffLogs(t *testing.T, what string, got, want []diffRec) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s diverge at record %d:\n  link:   %v\n  oracle: %v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: link logged %d records, oracle %d", what, len(got), len(want))
	}
}

// checkDiff runs one script on both models and compares everything.
func checkDiff(t *testing.T, data []byte) diffCover {
	t.Helper()
	sc := decodeScript(data)
	got, want := runDiff(&sc, mkLink), runDiff(&sc, mkOracle)
	diffLogs(t, "ops/drops/FilterTx", got.log, want.log)
	diffLogs(t, "deliveries", got.rx, want.rx)
	// (The engines need not drain at the same instant: a voided packet's
	// delivery event still fires, as a no-op, Delay after its lineFree.)
	if got.m.Stats() != want.m.Stats() || got.m.Pending() || want.m.Pending() {
		t.Fatalf("after drain: stats %+v pending %v, oracle %+v pending %v",
			got.m.Stats(), got.m.Pending(), want.m.Stats(), want.m.Pending())
	}
	// Never more events than the oracle, the no-op deliveries aside.
	if got.events > want.events+got.cov.voided {
		t.Fatalf("link ran %d events (%d voided), the oracle only %d", got.events, got.cov.voided, want.events)
	}
	for _, d := range []*diffRun{got, want} {
		if n := d.pool.Outstanding(); n != 0 {
			t.Fatalf("%T leaked %d pool packets", d.m, n)
		}
	}
	l := got.m.(*Link)
	for _, r := range []*Ring{&l.queue, &l.inflight} {
		if r.Len() != 0 {
			t.Fatalf("ring holds %d entries after drain", r.Len())
		}
		for i, p := range r.buf {
			if p != nil {
				t.Fatalf("ring slot %d still pins packet %d after drain", i, p.ID)
			}
		}
	}
	return got.cov
}

func TestLinkDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	var cov diffCover
	for i := 0; i < 1500; i++ {
		data := make([]byte, diffHeader+3*(10+rng.Intn(150)))
		rng.Read(data)
		cov.add(checkDiff(t, data))
	}
	t.Logf("coverage: %+v", cov)
	if cov.enqAtLineFree < 100 || cov.downMidTx < 100 || cov.downAtLineFree < 100 ||
		cov.upBeforeDeparture < 100 || cov.voided < 100 {
		t.Fatalf("scripts no longer reach the corner cases: %+v", cov)
	}
}

func FuzzLinkDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		data := make([]byte, diffHeader+3*40)
		rng.Read(data)
		f.Add(data)
	}
	// Down one tick before the end of a serialization, up exactly at it.
	f.Add([]byte{0, 3, 2, 0, 0, 0, 0, 0, 0, 100, 5 | 4<<3, 0, 0, 6 | 5<<3, 0, 0, 0, 9, 50})
	f.Fuzz(func(t *testing.T, data []byte) { checkDiff(t, data) })
}

// TestLinkDownMidSerialization spells out the link-down rule the scripts
// above fuzz: the serializing packet already has its delivery booked, and
// whether it survives is decided at lineFree.
func TestLinkDownMidSerialization(t *testing.T) {
	const tx = 100 * sim.Microsecond // 1250 B at 100 Mb/s
	for _, tc := range []struct {
		name          string
		downAt, upAt  sim.Time // upAt 0: stays down
		wantDelivered bool
	}{
		{"down until after departure", tx / 2, 2 * tx, false},
		{"down one tick before departure", tx - 1, 0, false},
		{"down at the departure instant", tx, 0, true},
		{"down then up before departure", tx / 4, tx - 1, true},
	} {
		eng := sim.New(1)
		dst := &collector{eng: eng}
		pool := NewPool()
		l := New(eng, Config{RateBps: 100_000_000, Delay: 10 * sim.Microsecond}, dst, 0)
		var dropAt sim.Time = -1
		l.DropEvents().Subscribe(func(ev DropEvent) {
			if ev.Reason != DropLinkDown {
				t.Errorf("%s: drop reason %v", tc.name, ev.Reason)
			}
			dropAt = eng.Now()
		})
		p := pool.Get()
		p.Size = 1250
		l.Enqueue(p)
		eng.RunUntil(tc.downAt)
		l.SetDown(true)
		if tc.upAt > 0 {
			eng.RunUntil(tc.upAt)
			l.SetDown(false)
		}
		eng.Run()
		if delivered := len(dst.pkts) == 1; delivered != tc.wantDelivered {
			t.Errorf("%s: delivered = %v, want %v", tc.name, delivered, tc.wantDelivered)
		}
		if tc.wantDelivered {
			dst.pkts[0].Release()
		} else if dropAt != tx {
			t.Errorf("%s: dropped at %d, want the departure instant %d", tc.name, dropAt, tx)
		}
		if want := uint64(1); l.Stats().TxPackets != want {
			t.Errorf("%s: TxPackets = %d", tc.name, l.Stats().TxPackets)
		}
		if pool.Outstanding() != 0 || l.Pending() {
			t.Errorf("%s: outstanding %d pending %v", tc.name, pool.Outstanding(), l.Pending())
		}
	}
}

// TestLinkEventsPerPacket pins the point of the elision in engine events: a
// packet that finds the line idle costs one (its delivery); a packet that
// waits costs the txDone that starts it as well.
func TestLinkEventsPerPacket(t *testing.T) {
	const n = 50
	cfg := Config{RateBps: 100_000_000, Delay: 10 * sim.Microsecond} // 1250 B = 100 us

	eng := sim.New(1)
	l := New(eng, cfg, &collector{eng: eng}, 0)
	events := 0
	for i, at := 0, sim.Time(0); i < n; i++ {
		events += eng.RunUntil(at)
		l.Enqueue(&Packet{Size: 1250})
		// Alternately arrive exactly as the previous packet departs and
		// well after it.
		at += 100 * sim.Microsecond * sim.Time(1+i%2)
	}
	events += eng.Run()
	if events != n {
		t.Errorf("%d spaced packets on an idle link ran %d events, want %d", n, events, n)
	}

	eng = sim.New(1)
	l = New(eng, cfg, &collector{eng: eng}, 0)
	for i := 0; i < n; i++ {
		l.Enqueue(&Packet{Size: 1250})
	}
	if events = eng.Run(); events != 2*n-1 {
		t.Errorf("%d back-to-back packets ran %d events, want %d", n, events, 2*n-1)
	}
}
