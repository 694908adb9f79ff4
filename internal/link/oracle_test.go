package link

// The two-event link — one txDone and one deliver event for every packet —
// kept as a test-only oracle for Link, which elides txDone on idle lines.
// Apart from the hook this file's harness needs it is the transmit path as
// it stood before the elision, so the differential tests in diff_test.go
// pin "only the scheduler can tell the difference".

import "minions/internal/sim"

type oracleLink struct {
	eng *sim.Engine
	cfg Config

	dst     Receiver
	dstPort int

	queue      Ring
	inflight   Ring
	txPkt      *Packet
	queueBytes int
	busy       bool
	down       bool
	fault      TxFault
	stats      Stats

	winStart sim.Time
	winBytes int64
	arrBytes int64
	utilPm   uint32
	arrPm    uint32

	onDrop func(p *Packet, reason DropReason)
}

func newOracle(eng *sim.Engine, cfg Config, dst Receiver, dstPort int) *oracleLink {
	ref := New(eng, cfg, dst, dstPort) // for the config defaults
	return &oracleLink{eng: eng, cfg: ref.cfg, dst: dst, dstPort: dstPort}
}

func (l *oracleLink) Stats() Stats         { return l.stats }
func (l *oracleLink) QueueLenPackets() int { return l.queue.Len() }
func (l *oracleLink) QueueLenBytes() int   { return l.queueBytes }
func (l *oracleLink) SetTxFault(f TxFault) { l.fault = f }
func (l *oracleLink) Pending() bool        { return l.busy || l.queue.Len() > 0 }

func (l *oracleLink) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	if !down {
		return
	}
	for {
		p := l.queue.Pop()
		if p == nil {
			return
		}
		l.queueBytes -= p.Size
		l.drop(p, DropLinkDown)
	}
}

func (l *oracleLink) drop(p *Packet, reason DropReason) {
	l.stats.DropBytes += uint64(p.Size)
	l.stats.DropPackets++
	if l.onDrop != nil {
		l.onDrop(p, reason)
	}
	p.Release()
}

func (l *oracleLink) roll() {
	now := l.eng.Now()
	elapsed := now - l.winStart
	if elapsed < utilWindow {
		return
	}
	capacity := l.cfg.RateBps * int64(elapsed) / int64(sim.Second)
	if capacity <= 0 {
		l.utilPm = 0
		l.arrPm = 0
	} else {
		pm := l.winBytes * 8 * 1000 / capacity
		if pm > 1000 {
			pm = 1000
		}
		l.utilPm = uint32(pm)
		apm := l.arrBytes * 8 * 1000 / capacity
		if apm > 4000 {
			apm = 4000
		}
		l.arrPm = uint32(apm)
	}
	l.winStart = now
	l.winBytes = 0
	l.arrBytes = 0
}

func (l *oracleLink) UtilPermille() uint32 {
	l.roll()
	return l.utilPm
}

func (l *oracleLink) ArrivalUtilPermille() uint32 {
	l.roll()
	return l.arrPm
}

func (l *oracleLink) Enqueue(p *Packet) bool {
	if p.inPool {
		panic("link: Enqueue of a packet already returned to its pool")
	}
	l.roll()
	l.arrBytes += int64(p.Size)
	if l.down {
		l.drop(p, DropLinkDown)
		return false
	}
	if l.queueBytes+p.Size > l.cfg.QueueBytes {
		l.drop(p, DropQueueFull)
		return false
	}
	l.queue.Push(p)
	l.queueBytes += p.Size
	if !l.busy {
		l.startTransmit()
	}
	return true
}

func (l *oracleLink) Handle(arg uint64) {
	switch arg {
	case linkArgTxDone:
		p := l.txPkt
		l.txPkt = nil
		if l.down {
			l.drop(p, DropLinkDown)
			l.startTransmit()
			return
		}
		l.inflight.Push(p)
		l.eng.ScheduleAfter(l.cfg.Delay, l, linkArgDeliver)
		l.startTransmit()
	case linkArgDeliver:
		l.dst.Receive(l.inflight.Pop(), l.dstPort)
	}
}

func (l *oracleLink) startTransmit() {
	var (
		p     *Packet
		stall sim.Time
	)
	for {
		p = l.queue.Pop()
		if p == nil {
			l.busy = false
			return
		}
		l.busy = true
		l.queueBytes -= p.Size
		if l.fault == nil {
			break
		}
		drop, s := l.fault.FilterTx(p)
		if !drop {
			stall = s
			break
		}
		l.drop(p, DropFaultLoss)
	}
	txTime := sim.Time(int64(p.Size)*8*int64(sim.Second)/l.cfg.RateBps) + stall
	if txTime < 1 {
		txTime = 1
	}
	l.roll()
	l.winBytes += int64(p.Size)
	l.stats.TxBytes += uint64(p.Size)
	l.stats.TxPackets++

	l.txPkt = p
	l.eng.ScheduleAfter(txTime, l, linkArgTxDone)
}
