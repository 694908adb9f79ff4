package workload

import (
	"fmt"
	"math/rand"

	"minions/internal/host"
	"minions/internal/link"
	"minions/internal/sim"
	"minions/internal/transport"
)

func errorf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// incastAgg is one aggregator's resident round driver: every Period
// (+Jitter) it picks FanIn distinct workers by partial Fisher-Yates over a
// pre-built permutation slice and sends each a request — zero allocations
// per round.
type incastAgg struct {
	eng      *sim.Engine
	agg      *host.Host
	rng      *rand.Rand
	g        *groupRun
	workers  []*host.Host
	perm     []int32
	fanIn    int
	reqBytes int
	pktSize  int
	reqPort  uint16
	respPort uint16
	period   sim.Time
	jitter   sim.Time
	base     sim.Time // unjittered time of the last-armed round
	stopAt   sim.Time
}

func (a *incastAgg) halt() { a.stopAt = 0 }

func (a *incastAgg) arm() {
	a.base += a.period
	at := a.base
	if a.jitter > 0 {
		at += sim.Time(a.rng.Int63n(int64(a.jitter)))
	}
	a.eng.Schedule(at, a, 0)
}

// Handle fires one partition-aggregate round.
func (a *incastAgg) Handle(uint64) {
	if a.eng.Now() >= a.stopAt {
		return
	}
	n := len(a.perm)
	for k := 0; k < a.fanIn; k++ {
		j := k + a.rng.Intn(n-k)
		a.perm[k], a.perm[j] = a.perm[j], a.perm[k]
		w := a.workers[a.perm[k]]
		cnt := transport.SendBurst(a.agg, w.ID(), a.respPort, a.reqPort, a.reqBytes, a.pktSize)
		a.g.pkts.Add(uint64(cnt))
		a.g.reqs.Add(1)
	}
	a.g.msgs.Add(1)
	a.arm()
}

// incastResponder answers requests on a worker host: the synchronized
// response burst back to the requesting aggregator's response port.
type incastResponder struct {
	h         *host.Host
	g         *groupRun
	respBytes int
	pktSize   int
	reqPort   uint16
	stopAt    sim.Time
}

func (r *incastResponder) halt() { r.stopAt = 0 }

func (r *incastResponder) onRequest(p *link.Packet) {
	agg, sport := p.Flow.Src, p.Flow.SrcPort
	p.Release()
	if r.h.Engine().Now() >= r.stopAt {
		return
	}
	n := transport.SendBurst(r.h, agg, r.reqPort, sport, r.respBytes, r.pktSize)
	r.g.pkts.Add(uint64(n))
	r.g.resps.Add(1)
	r.g.msgBytes.Add(uint64(r.respBytes))
}

func compileIncast(g *Group, gr *groupRun, hosts []*host.Host, seed int64, r *Runner) error {
	in := g.Incast
	if in.FanIn <= 0 {
		return errorf("Incast.FanIn must be > 0")
	}
	if in.ResponseBytes <= 0 {
		return errorf("Incast.ResponseBytes must be > 0")
	}
	if in.Period <= 0 {
		return errorf("Incast.Period must be > 0")
	}
	reqBytes := in.RequestBytes
	if reqBytes == 0 {
		reqBytes = 64
	}
	pktSize := in.PktSize
	if pktSize == 0 {
		pktSize = 1440
	}
	reqPort := in.Port
	if reqPort == 0 {
		reqPort = 9200
	}
	respPort := reqPort + 1

	workers, grpIdx, err := resolve(hosts, g.Hosts)
	if err != nil {
		return errorf("Hosts: %v", err)
	}
	aggIdx := in.Aggregators
	if aggIdx == nil {
		aggIdx = grpIdx[:1]
	}
	aggs, _, err := resolve(hosts, aggIdx)
	if err != nil {
		return errorf("Aggregators: %v", err)
	}
	stopAt := stopOf(g)

	// Responders first (request sinks), then aggregator response sinks,
	// then the round drivers — receivers always exist before traffic.
	respPkts := (in.ResponseBytes + pktSize - 1) / pktSize
	reqPkts := (reqBytes + pktSize - 1) / pktSize
	for _, w := range workers {
		resp := &incastResponder{
			h: w, g: gr, respBytes: in.ResponseBytes, pktSize: pktSize,
			reqPort: reqPort, stopAt: stopAt,
		}
		w.Bind(reqPort, link.ProtoUDP, resp.onRequest)
		r.sources = append(r.sources, resp)
		// Every aggregator could query this worker in the same round.
		r.reservePool(w, respPkts*len(aggs))
	}
	for _, a := range aggs {
		r.Sinks = append(r.Sinks, transport.NewSink(a, respPort, link.ProtoUDP))
	}
	for ai, a := range aggs {
		// Each aggregator queries every worker but itself.
		var pool []*host.Host
		for _, w := range workers {
			if w != a {
				pool = append(pool, w)
			}
		}
		if len(pool) == 0 {
			return errorf("aggregator %d has no workers to query", ai)
		}
		fan := in.FanIn
		if fan > len(pool) {
			fan = len(pool)
		}
		perm := make([]int32, len(pool))
		for i := range perm {
			perm[i] = int32(i)
		}
		agg := &incastAgg{
			eng: a.Engine(), agg: a, rng: rand.New(rand.NewSource(seed + int64(ai)*7919)),
			g: gr, workers: pool, perm: perm, fanIn: fan,
			reqBytes: reqBytes, pktSize: pktSize,
			reqPort: reqPort, respPort: respPort,
			period: in.Period, jitter: in.Jitter,
			base: g.Start, stopAt: stopAt,
		}
		gr.sources++
		r.sources = append(r.sources, agg)
		r.reservePool(a, fan*reqPkts*2)
		at := agg.base
		if agg.jitter > 0 {
			at += sim.Time(agg.rng.Int63n(int64(agg.jitter)))
		}
		a.Engine().Schedule(at, agg, 0)
	}
	r.nsrc += gr.sources
	return nil
}
