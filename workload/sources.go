package workload

import (
	"math/rand"

	"minions/internal/host"
	"minions/internal/link"
	"minions/internal/sim"
	"minions/internal/transport"
)

// msgClass is a compiled Class: the sampler plus its pacing rate.
type msgClass struct {
	sizes   SizeDist
	rateBps int64
}

// pendMsg is one paced message waiting for its token bucket.
type pendMsg struct {
	dst   link.NodeID
	bytes int32
	class int32
}

// pendRing is a fixed-capacity FIFO of paced messages — pre-allocated at
// compile time so enqueue/dequeue never allocate.
type pendRing struct {
	buf  []pendMsg
	head int
	n    int
}

func (r *pendRing) push(m pendMsg) bool {
	if r.n == len(r.buf) {
		return false
	}
	r.buf[(r.head+r.n)%len(r.buf)] = m
	r.n++
	return true
}

func (r *pendRing) pop() (pendMsg, bool) {
	if r.n == 0 {
		return pendMsg{}, false
	}
	m := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return m, true
}

// bucketPkts is the depth of a paced source's token bucket, in full-size
// packets.
const bucketPkts = 2

// tokenBucket is a precise rate pacer in wire bits with nanosecond
// remainder accounting: refills carry the sub-bit remainder forward, so
// long-run throughput is exactly rateBps with no drift.
type tokenBucket struct {
	rateBps   int64
	burstBits int64
	bits      int64
	rem       int64 // accumulated bit-fraction numerator, < 1e9
	last      sim.Time
}

func (b *tokenBucket) setRate(rate int64, now sim.Time) {
	b.refill(now)
	b.rateBps = rate
}

func (b *tokenBucket) refill(now sim.Time) {
	el := int64(now - b.last)
	b.last = now
	if el <= 0 || b.rateBps <= 0 {
		return
	}
	need := b.burstBits - b.bits
	if need <= 0 {
		return
	}
	// Cap the elapsed window at time-to-full before multiplying: keeps
	// el*rate far from int64 overflow for any idle gap.
	full := (need*int64(sim.Second)-b.rem+b.rateBps-1)/b.rateBps + 1
	if el >= full {
		b.bits = b.burstBits
		b.rem = 0
		return
	}
	acc := el*b.rateBps + b.rem
	b.bits += acc / int64(sim.Second)
	b.rem = acc % int64(sim.Second)
	if b.bits > b.burstBits {
		b.bits = b.burstBits
		b.rem = 0
	}
}

func (b *tokenBucket) take(bits int64) bool {
	if b.bits < bits {
		return false
	}
	b.bits -= bits
	return true
}

// wait returns the time until `bits` tokens will be available.
func (b *tokenBucket) wait(bits int64) sim.Time {
	need := bits - b.bits
	dt := (need*int64(sim.Second) - b.rem + b.rateBps - 1) / b.rateBps
	if dt < 1 {
		dt = 1
	}
	return sim.Time(dt)
}

// msgSource is the resident per-host message generator: Poisson arrivals,
// class-mixed sizes, burst or token-bucket-paced transmission. It is its
// own sim.Handler (arg 0 = arrival, arg 1 = arm only), so steady state
// draws, sends and re-arms with zero allocations.
type msgSource struct {
	eng     *sim.Engine
	src     *host.Host
	rng     *rand.Rand
	g       *groupRun
	dsts    []*host.Host
	meanGap float64
	pktSize int
	sport   uint16
	dport   uint16
	stopAt  sim.Time
	classes []msgClass
	pick    aliasTable // empty when a single class

	// Pacing state (nil drain = all classes burst).
	drain    *msgDrain
	bucket   tokenBucket
	pend     pendRing
	cur      pendMsg
	curRem   int
	draining bool
}

func (s *msgSource) halt() { s.stopAt = 0 }

func (s *msgSource) arm() {
	gap := sim.Time(s.rng.ExpFloat64() * s.meanGap)
	if gap < 1 {
		gap = 1
	}
	s.eng.ScheduleAfter(gap, s, 0)
}

// Handle fires one message arrival (or, with arg 1, just arms the first).
func (s *msgSource) Handle(arg uint64) {
	if arg == 1 {
		s.arm()
		return
	}
	if s.eng.Now() >= s.stopAt {
		return
	}
	dst := s.dsts[s.rng.Intn(len(s.dsts))]
	for dst == s.src {
		dst = s.dsts[s.rng.Intn(len(s.dsts))]
	}
	ci := 0
	if len(s.pick.prob) > 0 {
		ci = s.pick.pick(s.rng)
	}
	c := &s.classes[ci]
	size := c.sizes.sample(s.rng)
	s.g.msgs.Add(1)
	s.g.msgBytes.Add(uint64(size))
	if c.rateBps <= 0 {
		n := transport.SendBurst(s.src, dst.ID(), s.sport, s.dport, size, s.pktSize)
		s.g.pkts.Add(uint64(n))
	} else {
		s.enqueue(pendMsg{dst: dst.ID(), bytes: int32(size), class: int32(ci)})
	}
	s.arm()
}

func (s *msgSource) enqueue(m pendMsg) {
	if s.draining {
		if !s.pend.push(m) {
			s.g.overflow.Add(1)
		}
		return
	}
	s.cur = m
	s.curRem = int(m.bytes)
	s.draining = true
	c := &s.classes[m.class]
	s.bucket.setRate(c.rateBps, s.eng.Now())
	s.drain.Handle(0)
}

// msgDrain is the token-bucket transmit loop of a paced msgSource — a
// second resident sim.Handler identity so pacing events stay typed and
// allocation-free.
type msgDrain struct{ s *msgSource }

func (d *msgDrain) Handle(uint64) {
	s := d.s
	if !s.draining {
		return
	}
	now := s.eng.Now()
	s.bucket.refill(now)
	for {
		sz := s.curRem
		if sz > s.pktSize {
			sz = s.pktSize
		}
		wire := sz + transport.HeaderBytes
		bits := int64(wire) * 8
		if !s.bucket.take(bits) {
			s.eng.ScheduleAfter(s.bucket.wait(bits), d, 0)
			return
		}
		p := s.src.NewPacket(s.cur.dst, s.sport, s.dport, link.ProtoUDP, wire)
		s.src.Send(p)
		s.g.pkts.Add(1)
		s.curRem -= sz
		if s.curRem <= 0 {
			m, ok := s.pend.pop()
			if !ok {
				s.draining = false
				return
			}
			s.cur = m
			s.curRem = int(m.bytes)
			c := &s.classes[m.class]
			s.bucket.setRate(c.rateBps, now)
		}
	}
}

// onoffSource alternates heavy-tailed ON bursts (CBR toward one random
// destination) with silent OFF periods — one resident handler per host.
type onoffSource struct {
	eng     *sim.Engine
	src     *host.Host
	rng     *rand.Rand
	g       *groupRun
	dsts    []*host.Host
	pktSize int
	gap     sim.Time // per-packet serialization gap at RateBps
	sport   uint16
	dport   uint16
	stopAt  sim.Time
	on, off DurDist
	onUntil sim.Time
	dst     link.NodeID
	active  bool
}

func (s *onoffSource) halt() { s.stopAt = 0 }

// Handle advances the ON/OFF state machine by one packet or transition.
func (s *onoffSource) Handle(uint64) {
	now := s.eng.Now()
	if now >= s.stopAt {
		return
	}
	if !s.active {
		d := s.dsts[s.rng.Intn(len(s.dsts))]
		for d == s.src {
			d = s.dsts[s.rng.Intn(len(s.dsts))]
		}
		s.dst = d.ID()
		s.onUntil = now + s.on.sample(s.rng)
		s.active = true
		s.g.msgs.Add(1)
	}
	if now >= s.onUntil {
		s.active = false
		s.eng.ScheduleAfter(s.off.sample(s.rng), s, 0)
		return
	}
	p := s.src.NewPacket(s.dst, s.sport, s.dport, link.ProtoUDP, s.pktSize)
	s.src.Send(p)
	s.g.pkts.Add(1)
	s.g.msgBytes.Add(uint64(s.pktSize))
	s.eng.ScheduleAfter(s.gap, s, 0)
}

func compileOnOff(g *Group, gr *groupRun, hosts []*host.Host, seed int64, r *Runner) error {
	o := g.OnOff
	if o.RateBps <= 0 {
		return errorf("OnOff.RateBps must be > 0")
	}
	if !o.On.valid() || !o.Off.valid() {
		return errorf("OnOff.On and .Off must be set (FixedDur/ExpDur/ParetoDur)")
	}
	pktSize := o.PktSize
	if pktSize == 0 {
		pktSize = 1400
	}
	dstPort := o.DstPort
	if dstPort == 0 {
		dstPort = 9300
	}
	sportBase := g.SportBase
	if sportBase == 0 {
		sportBase = 40000
	}
	dsts, _, err := resolve(hosts, o.Dst)
	if err != nil {
		return errorf("Dst: %v", err)
	}
	for _, h := range dsts {
		r.Sinks = append(r.Sinks, transport.NewSink(h, dstPort, link.ProtoUDP))
	}
	_, srcIdx, err := resolve(hosts, g.Hosts)
	if err != nil {
		return errorf("Hosts: %v", err)
	}
	if len(dsts) == 1 {
		for _, i := range srcIdx {
			if hosts[i] == dsts[0] {
				return errorf("sole destination is also a source")
			}
		}
	}
	member := make([]bool, len(hosts))
	for _, i := range srcIdx {
		member[i] = true
	}
	gap := sim.Time(int64(pktSize) * 8 * int64(sim.Second) / o.RateBps)
	if gap < 1 {
		gap = 1
	}
	stopAt := stopOf(g)
	for i, h := range hosts {
		if !member[i] {
			continue
		}
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		src := &onoffSource{
			eng: h.Engine(), src: h, rng: rng, g: gr,
			dsts: dsts, pktSize: pktSize, gap: gap,
			sport: uint16(sportBase + i), dport: dstPort,
			stopAt: stopAt, on: o.On, off: o.Off,
		}
		gr.sources++
		r.sources = append(r.sources, src)
		// ON periods emit one packet per gap; a handful covers the in-flight
		// window even across deep queues.
		r.reservePool(h, 8)
		// Stagger starts by an initial OFF draw so sources do not
		// phase-lock their first bursts.
		h.Engine().Schedule(g.Start+o.Off.sample(rng), src, 0)
	}
	r.nsrc += gr.sources
	return nil
}
