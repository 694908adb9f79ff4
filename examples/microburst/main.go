// Micro-burst detection (§2.1, Figure 1): deploy the public
// apps/microburst minion on a dumbbell network, instrument every packet of
// an all-to-all workload, and print the queue-occupancy fractiles that
// per-packet visibility makes possible — plus a live tap on the typed
// sample stream.
package main

import (
	"fmt"
	"log"

	"minions/apps/microburst"
	"minions/tppnet"
	"minions/workload"
)

func main() {
	n := tppnet.NewNetwork(tppnet.WithSeed(3))
	hosts, _, _ := n.Dumbbell(6, 100)

	// New(cfg) → Attach: the uniform apps/* shape. Collection is passive —
	// every instrumented packet feeds the monitor as it arrives.
	mon := microburst.New(microburst.Config{
		Filter: tppnet.FilterSpec{Proto: tppnet.ProtoUDP},
		Hosts:  hosts,
	})
	if err := mon.Attach(n, nil); err != nil {
		log.Fatal(err)
	}

	// The typed telemetry stream sees each snapshot live; count the deep
	// ones a polling monitor would likely miss.
	deep := 0
	mon.SampleStream().Subscribe(func(s microburst.Sample) {
		if s.Occupancy >= 10 {
			deep++
		}
	})

	if _, err := n.AttachWorkload(workload.AllToAll(workload.AllToAllConfig{
		MsgBytes: 10_000,
		Load:     0.30,
		Duration: 2 * tppnet.Second,
		Seed:     11,
	})); err != nil {
		log.Fatal(err)
	}
	n.RunUntil(2*tppnet.Second + 100*tppnet.Millisecond)

	fmt.Printf("per-packet queue occupancy (%d samples, TPP adds %d B/pkt)\n",
		mon.Samples(), mon.Overhead())
	fmt.Printf("%-10s %8s %8s %6s %6s %6s\n", "queue", "samples", "empty%", "p50", "p90", "max")
	for _, q := range mon.Queues() {
		c := mon.CDF(q)
		if c.N() < 50 {
			continue
		}
		fmt.Printf("%-10s %8d %7.1f%% %6.1f %6.1f %6.0f\n",
			q.String(), c.N(), mon.EmptyFraction(q)*100, c.Quantile(0.5), c.Quantile(0.9), c.Max())
	}
	fmt.Printf("\nsnapshots >= 10 packets deep: %d\n", deep)
	fmt.Println("Queues are empty at most packet arrivals yet occasionally deep —")
	fmt.Println("exactly the bursts a poller would miss.")
}
