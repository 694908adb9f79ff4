package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// checker counts the correctness operations of one run: every check is one
// attempted operation, every violated check one failed operation.
type checker struct {
	total, failed int
	failures      []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.total++
	if !ok {
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// checkDrained verifies the invariants of a network that has been run dry.
// c is a scrape taken after the drain; outstanding is PoolOutstanding.
func (ck *checker) checkDrained(c *counters, outstanding int64) {
	var local, viaLink uint64
	for _, r := range localDropReasons {
		local += c.swDrops[r]
	}
	for _, r := range linkDropReasons {
		viaLink += c.swDrops[r]
	}
	// Every packet a host put on the wire ended at a host, at a link
	// (drop-tail, down link, fault loss) or inside a switch.
	ck.check(c.hostTx == c.hostRx+c.linkDrops+local,
		"packet conservation: host tx %d != host rx %d + link drops %d + switch-local drops %d (%s)",
		c.hostTx, c.hostRx, c.linkDrops, local, c.dropsLine)
	// Switches re-publish exactly the drops their egress links reported.
	ck.check(viaLink == c.linkDrops-c.nicDrops,
		"drop attribution: switches report %d link drops, switch egress links %d (%s)",
		viaLink, c.linkDrops-c.nicDrops, c.dropsLine)
	ck.check(outstanding == 0, "pool leak: %d packets outstanding after drain", outstanding)
}

// checkFabric adds the traffic invariants of a fat-tree scenario.
func (ck *checker) checkFabric(sc *scenario, win *window, end *counters) {
	hops := win.after.pktHops - win.before.pktHops
	ck.check(hops > 0 && win.after.sinkPkts > win.before.sinkPkts,
		"window made no progress: %d pkt-hops, %d deliveries", hops, win.after.sinkPkts-win.before.sinkPkts)
	// Host deliveries are sink deliveries plus the incast requests the
	// workers consumed (no sink counts those).
	other := end.hostRx - end.sinkPkts
	ck.check(end.hostRx >= end.sinkPkts && other <= end.requests,
		"deliveries: host rx %d, sinks %d, incast requests sent %d", end.hostRx, end.sinkPkts, end.requests)
	if sc.shape != nil {
		ck.check(end.records == end.tppHops,
			"hop records %d != switch hops of delivered instrumented packets %d", end.records, end.tppHops)
		ck.check(end.tppPkts == end.stripped && end.unclaimed == 0,
			"aggregator saw %d TPPs, shims stripped %d, %d unclaimed", end.tppPkts, end.stripped, end.unclaimed)
	}
	if sc.pipe != nil {
		ck.check(end.published == end.records && end.pipeDropped == 0,
			"telemetry: %d records published for %d hop records, %d dropped", end.published, end.records, end.pipeDropped)
		ck.check(end.captured == end.hostTx,
			"trace capture: %d packets captured of %d transmitted", end.captured, end.hostTx)
	}
}

// digestOf condenses a run's simulated behaviour to 16 hex digits. Only
// simulated quantities go in — never host time, event counts (crossings
// add events) or pool traffic (crossings re-home packets) — so the digest
// is a function of (workload, seed, seconds) alone: identical across
// rounds, across commits that only make the simulator faster, and across
// shard counts.
func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v|", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fabricDigest is the behaviour digest of a fat-tree run: the window's
// pkt-hops, deliveries, drops and hop records, and the drained totals.
func fabricDigest(win *window, end *counters) string {
	b, a := &win.before, &win.after
	return digestOf(
		a.pktHops-b.pktHops, a.txBytes-b.txBytes,
		a.sinkPkts-b.sinkPkts, a.sinkBytes-b.sinkBytes,
		a.linkDrops-b.linkDrops, a.records-b.records,
		a.dropsLine, end.dropsLine,
		end.pktHops, end.hostTx, end.hostRx, end.sinkPkts, end.sinkBytes, end.records,
		end.workloadFP)
}
