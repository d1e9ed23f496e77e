package main

import (
	"fmt"

	"openmxsim/internal/cluster"
	"openmxsim/internal/fabric"
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
)

// incastWorkload runs sweep.RunIncast with 63 senders converging on one
// receiver through the output-queued switch (64-frame egress buffer), for
// 128 B and 4 KiB messages under four coalescing strategies, on the
// serial engine in a closed loop. 64-node clusters, heavy drop-tail loss
// and frame-pool churn load the switch's MAC lookup, the NIC interrupt
// path under overload and cluster construction.
var incastWorkload = &workload{name: "incast", open: openIncast}

const incastSenders = 63

var (
	incastSizes      = []int{128, 4 << 10}
	incastStrategies = []nic.Strategy{nic.StrategyDisabled, nic.StrategyTimeout, nic.StrategyOpenMX, nic.StrategyStream}
)

type incastOp struct {
	name string
	spec sweep.IncastSpec
}

type incastInstance struct{ ops []incastOp }

func openIncast(seed uint64) (instance, error) {
	inst := &incastInstance{}
	for _, size := range incastSizes {
		for _, st := range incastStrategies {
			cfg := cluster.Paper()
			cfg.Seed = seed
			cfg.Strategy = st
			cfg.Parallelism = 1
			cfg.Topology = fabric.Topology{Kind: fabric.TopologyOutputQueued, EgressQueueFrames: 64}
			inst.ops = append(inst.ops, incastOp{
				name: fmt.Sprintf("%dB/%s", size, st),
				spec: sweep.IncastSpec{
					Cluster: cfg,
					Senders: incastSenders,
					Size:    size,
					Warmup:  5 * sim.Millisecond,
					Measure: 40 * sim.Millisecond,
				},
			})
		}
	}
	runIncast(inst.ops[0], nil)
	return inst, nil
}

func (n *incastInstance) pass(m *meter, tr *tracer) error {
	for _, op := range n.ops {
		out := runIncast(op, tr)
		m.done(op.name, out, nil)
	}
	return nil
}

// probe times building the incast's 64-node cluster, which RunIncast does
// internally.
func (n *incastInstance) probe(tr *tracer) error {
	for _, op := range n.ops {
		cfg := op.spec.Cluster
		cfg.Nodes = incastSenders + 1
		sp := tr.begin("cluster.new64")
		cluster.New(cfg)
		tr.end(sp)
	}
	return nil
}

func (n *incastInstance) close() error { return nil }

func runIncast(op incastOp, tr *tracer) string {
	sp := tr.begin("sweep.incast")
	r := sweep.RunIncast(op.spec)
	tr.end(sp)
	if tr != nil {
		for _, p := range r.Ports {
			tr.add("fabric.frames", float64(p.FramesDelivered))
			tr.add("fabric.drops", float64(p.Drops))
			tr.add("fabric.enqueued", float64(p.Enqueued))
			tr.add("fabric.queue_wait_ns", float64(p.QueueWait))
		}
		tr.add("omx.retransmits", float64(r.Proto.Retransmits))
		tr.add("omx.giveups", float64(r.Proto.GiveUps))
	}
	return fmt.Sprintf("received=%d interrupts=%d port_drops=%d", r.Received, r.Interrupts, r.PortDrops)
}
