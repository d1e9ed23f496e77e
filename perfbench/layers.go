package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// span is a timed call the benchmark is making into a layer.
type span struct {
	name  string
	start time.Time
}

// tracer keeps, for one traced run, the durations of the calls the
// benchmark made into each layer, by span name, and the simulated counts
// the layers reported. A nil *tracer records nothing: untraced runs pass
// nil.
type tracer struct {
	spans  map[string][]float64          // span name -> durations in ms
	cur    string                        // workload whose pass is traced
	counts map[string]map[string]float64 // workload -> count -> sum over passes
	passes map[string]int
	// pending is work a traced pass leaves to be done outside its timing,
	// such as decoding payloads for their simulated counts.
	pending []func() error
}

func newTracer() *tracer {
	return &tracer{spans: map[string][]float64{}, counts: map[string]map[string]float64{}, passes: map[string]int{}}
}

func (t *tracer) begin(name string) span {
	if t == nil {
		return span{}
	}
	return span{name, time.Now()}
}

func (t *tracer) end(sp span) {
	if t == nil {
		return
	}
	t.spans[sp.name] = append(t.spans[sp.name], float64(time.Since(sp.start))/1e6)
}

// later queues f to run at the next flush, outside the pass's timing.
func (t *tracer) later(f func() error) {
	if t == nil {
		return
	}
	t.pending = append(t.pending, f)
}

// flush runs the queued work, for the workload being traced.
func (t *tracer) flush() error {
	for _, f := range t.pending {
		if err := f(); err != nil {
			return err
		}
	}
	t.pending = nil
	return nil
}

// add accumulates a simulated count for the workload being traced.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	c := t.counts[t.cur]
	if c == nil {
		c = map[string]float64{}
		t.counts[t.cur] = c
	}
	c[name] += v
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// perPass is a count summed over every workload that produced it, each
// divided by that workload's traced passes. Simulated counts repeat
// exactly from pass to pass, so this is the count of one pass.
func (t *tracer) perPass(name string) float64 {
	var v float64
	for w, c := range t.counts {
		v += c[name] / float64(t.passes[w])
	}
	return v
}

// runTraced measures per-layer metrics. For the budget it cycles through
// three kinds of pass of the named workload: untraced, traced (spans and
// counts), and untraced under the CPU profiler, so that neither the
// spans nor the tracing overhead include the profiler's cost. Then it
// runs one traced pass and the probes of every other workload, so the
// layers the named workload bypasses are measured too.
func runTraced(w *workload, seed uint64, budget time.Duration, outDir string) (res *result, err error) {
	tr := newTracer()
	s, err := openSession(w, seed)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := s.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	m := &meter{}
	var plain, traced []float64
	var profiles []string
	var gcCPU float64
	deadline := time.Now().Add(budget)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		switch i % 3 {
		case 0:
			ps, err := s.pass(m, nil)
			if err != nil {
				return nil, err
			}
			plain = append(plain, ps.wall)
		case 1:
			tr.cur = w.name
			gc0 := gcCPUSeconds()
			ps, err := s.pass(m, tr)
			if err != nil {
				return nil, err
			}
			gcCPU += gcCPUSeconds() - gc0
			if err := tr.flush(); err != nil {
				return nil, err
			}
			tr.passes[w.name]++
			traced = append(traced, ps.wall)
		case 2:
			prof, err := profiledPass(s, m, filepath.Join(outDir, fmt.Sprintf("cpu-%s-%d.prof", w.name, i)))
			if err != nil {
				return nil, err
			}
			profiles = append(profiles, prof)
		}
	}
	if err := s.inst.probe(tr); err != nil {
		return nil, fmt.Errorf("%s: probe: %w", w.name, err)
	}
	for _, other := range workloads {
		if other != w {
			if err := traceOnce(other, seed, tr, s.check); err != nil {
				return nil, err
			}
		}
	}

	shares, err := cpuShares(profiles)
	if err != nil {
		return nil, err
	}
	mt := layerMetrics(tr)
	mt["trace.overhead_pct"] = metric{(median(traced)/median(plain) - 1) * 100, "%"}
	mt["runtime.gc_cpu_s"] = metric{gcCPU / float64(len(traced)), "s"}
	for _, mod := range profiledModules {
		mt[mod+".cpu_share"] = metric{shares[mod] * 100, "%"}
	}
	return &result{
		metrics: mt,
		samples: map[string]any{
			"untraced_passes": len(plain),
			"traced_passes":   len(traced),
			"profiled_passes": len(profiles),
			"serve_hits":      len(tr.spans["serve.hit"]),
			"serve_misses":    len(tr.spans["serve.miss"]),
		},
		check: s.check,
	}, nil
}

// profiledPass runs one untraced pass under the CPU profiler, writing the
// profile to path.
func profiledPass(s *session, m *meter, path string) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return "", err
	}
	_, err = s.pass(m, nil)
	pprof.StopCPUProfile()
	return path, errors.Join(err, f.Close())
}

// traceOnce sets up another workload, runs one traced pass and its probe.
// Its outputs are checked against the golden outputs like any pass.
func traceOnce(w *workload, seed uint64, tr *tracer, into *checker) error {
	inst, _, err := setUp(w, seed)
	if err != nil {
		return err
	}
	c, err := newChecker(w.name, seed)
	if err != nil {
		inst.close()
		return err
	}
	tr.cur = w.name
	m := &meter{}
	_, err = runPass(inst, m, tr)
	if err == nil {
		err = tr.flush()
	}
	if err == nil {
		tr.passes[w.name]++
		err = inst.probe(tr)
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: traced pass: %w", w.name, err)
	}
	c.check(m.outputs)
	into.attempted += c.attempted
	into.failed += c.failed
	into.msgs = append(into.msgs, c.msgs...)
	return nil
}

// layerMetrics derives the per-layer metrics from the spans and counts.
func layerMetrics(tr *tracer) map[string]metric {
	mpiRun := sum(tr.spans["mpi.run"])
	events := tr.counts["nas"]["sim.events"]
	getMS := median(tr.spans["cache.get"])
	putMS := median(tr.spans["cache.put"])
	runMS := median(tr.spans["sweep.run"])
	nprocs := float64(runtime.GOMAXPROCS(0))
	nasPasses := float64(tr.passes["nas"])
	hits, misses := tr.spans["serve.hit"], tr.spans["serve.miss"]
	mt := map[string]metric{
		"sim.events":          {tr.perPass("sim.events"), "count"},
		"sim.ns_per_event":    {mpiRun * 1e6 / events, "ns"},
		"cluster.new_ms":      {median(tr.spans["cluster.new"]), "ms"},
		"cluster.new64_ms":    {median(tr.spans["cluster.new64"]), "ms"},
		"nas.setup_ms":        {sum(tr.spans["nas.setup"]) / nasPasses, "ms"},
		"mpi.run_s":           {mpiRun / 1e3 / nasPasses, "s"},
		"host.irqs":           {tr.perPass("host.irqs"), "count"},
		"host.wakeups":        {tr.perPass("host.wakeups"), "count"},
		"nic.interrupts":      {tr.perPass("nic.interrupts"), "count"},
		"nic.packets_per_irq": {tr.perPass("nic.packets") / tr.perPass("nic.interrupts"), "ratio"},
		"nic.ring_drops":      {tr.perPass("nic.ring_drops"), "count"},
		"fabric.frames":       {tr.perPass("fabric.frames"), "count"},
		"fabric.drops":        {tr.perPass("fabric.drops"), "count"},
		"fabric.queue_wait_us": {tr.perPass("fabric.queue_wait_ns") / tr.perPass("fabric.enqueued") / 1e3,
			"sim_us"},
		"omx.retransmits":     {tr.perPass("omx.retransmits"), "count"},
		"omx.pull_requests":   {tr.perPass("omx.pull_requests"), "count"},
		"omx.giveups":         {tr.perPass("omx.giveups"), "count"},
		"sweep.run_ms":        {runMS, "ms"},
		"sweep.parallel_eff":  {sum(tr.spans["sweep.run"]) / (nprocs * sum(tr.spans["sweep.run_per_core"])), "ratio"},
		"serve.cache_get_ms":  {getMS, "ms"},
		"serve.cache_put_ms":  {putMS, "ms"},
		"serve.payload_kb":    {tr.perPass("serve.payload_bytes") / tr.perPass("serve.payloads") / 1024, "KiB"},
		"serve.hit_self_ms":   {median(hits) - getMS, "ms"},
		"serve.miss_self_ms":  {median(misses) - runMS - putMS, "ms"},
		"serve.hit_p50_ms":    {percentile(hits, 50), "ms"},
		"serve.hit_p90_ms":    {percentile(hits, 90), "ms"},
		"serve.miss_p50_ms":   {percentile(misses, 50), "ms"},
		"serve.miss_p90_ms":   {percentile(misses, 90), "ms"},
		"serve.hit_share_pct": {100 * sum(hits) / (sum(hits) + sum(misses)), "%"},
	}
	return mt
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(p/100*float64(len(s))))-1]
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// profiledModules are the rows of the CPU split: openmxsim's internal
// packages by name, the Go runtime, the benchmark itself ("bench") and
// everything else in the standard library ("other").
var profiledModules = []string{
	"sim", "host", "nic", "fabric", "omx", "wire", "mpi", "proc", "nas",
	"cluster", "chaos", "sweep", "serve", "runtime", "bench", "other",
}

// cpuShares groups the flat CPU time of the profiles by module, using the
// toolchain's pprof. The shares sum to 1.
func cpuShares(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000"}, profiles...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(&stdout)
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: bad flat time in %q", sc.Text())
		}
		flat[moduleOf(f[5])] += d.Seconds()
		total += d.Seconds()
	}
	if !header || total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %v", profiles)
	}
	for k := range flat {
		flat[k] /= total
	}
	return flat, nil
}

// moduleOf maps a profiled function name to its row of the CPU split.
func moduleOf(fn string) string {
	const internal = "openmxsim/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		mod := strings.TrimPrefix(fn, internal)
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		for _, m := range profiledModules {
			if m == mod {
				return mod
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "openmxsim/perfbench"):
		return "bench"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}
