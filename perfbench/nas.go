package main

import (
	"fmt"

	"openmxsim/internal/cluster"
	"openmxsim/internal/mpi"
	"openmxsim/internal/nas"
	"openmxsim/internal/nic"
)

// nasWorkload runs NAS kernels cg, is, mg and ft, class A, 16 ranks on the
// paper's 2-node direct link, each under three coalescing strategies, one
// after another on one goroutine (a closed loop). It loads the sim wheel,
// the host IRQ path, the NIC coalescers, omx (with the large-message pull
// protocol) and mpi collectives, and bypasses fabric queueing, sweep,
// serve, the cache and chaos.
var nasWorkload = &workload{name: "nas", open: openNAS}

var (
	nasKernels    = []string{"cg", "is", "mg", "ft"}
	nasStrategies = []nic.Strategy{nic.StrategyDisabled, nic.StrategyTimeout, nic.StrategyOpenMX}
)

type nasOp struct {
	name string
	wl   *nas.Workload
	cfg  cluster.Config
}

type nasInstance struct{ ops []nasOp }

// openNAS builds the workloads and runs the first operation untimed.
func openNAS(seed uint64) (instance, error) {
	inst := &nasInstance{}
	for _, k := range nasKernels {
		wl, err := nas.Get(k, 'A', 16)
		if err != nil {
			return nil, err
		}
		for _, st := range nasStrategies {
			cfg := cluster.Paper()
			cfg.Seed = seed
			cfg.Strategy = st
			inst.ops = append(inst.ops, nasOp{name: wl.FullName() + "/" + st.String(), wl: wl, cfg: cfg})
		}
	}
	if _, err := runNAS(inst.ops[0], nil); err != nil {
		return nil, err
	}
	return inst, nil
}

func (n *nasInstance) pass(m *meter, tr *tracer) error {
	for _, op := range n.ops {
		out, err := runNAS(op, tr)
		m.done(op.name, out, err)
	}
	return nil
}

func (n *nasInstance) probe(*tracer) error { return nil }
func (n *nasInstance) close() error        { return nil }

// runNAS is nas.Run composed from its public steps, so each step can be
// timed and the engines' event counts read.
func runNAS(op nasOp, tr *tracer) (string, error) {
	sp := tr.begin("cluster.new")
	cl := cluster.New(op.cfg)
	tr.end(sp)

	sp = tr.begin("nas.setup")
	w := mpi.NewWorld(cl, cl.OpenEndpoints(op.wl.Ranks/op.cfg.Nodes))
	cm := op.wl.Setup(w)
	tr.end(sp)

	sp = tr.begin("mpi.run")
	elapsed, err := w.Run(func(r *mpi.Rank) { op.wl.Body(r, w, cm) })
	tr.end(sp)
	if err != nil {
		return "", fmt.Errorf("%s: %w", op.name, err)
	}

	if tr != nil {
		for _, e := range cl.Engines {
			tr.add("sim.events", float64(e.Executed))
		}
		for _, h := range cl.Hosts {
			st := h.Stats()
			tr.add("host.irqs", float64(st.Interrupts))
			tr.add("host.wakeups", float64(st.Wakeups))
		}
		for i, c := range cl.NICs {
			tr.add("nic.interrupts", float64(c.Stats.Interrupts))
			tr.add("nic.packets", float64(c.Stats.PacketsReceived))
			tr.add("nic.ring_drops", float64(c.Stats.RingDrops))
			s := cl.Stacks[i].Stats
			tr.add("omx.retransmits", float64(s.Retransmits))
			tr.add("omx.pull_requests", float64(s.PullRequestsSent))
			tr.add("omx.giveups", float64(s.GiveUps))
		}
		tr.add("fabric.frames", float64(cl.Switch.FramesDelivered()))
	}
	return fmt.Sprintf("elapsed_ns=%d interrupts=%d packets=%d",
		elapsed, cl.Interrupts(), cl.Switch.FramesDelivered()), nil
}
