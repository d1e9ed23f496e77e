// Command perfbench is openmxsim's benchmark. It drives the simulator
// through the public entry points of its internal packages, on three
// workloads that load different layers (see README.md):
//
//	bash perfbench/run.sh --workload nas --seed 1 --seconds 35 --trace 0
//
// Each run repeats the workload's fixed operation list ("a pass") for the
// given number of seconds and prints one JSON object as the last line of
// standard output. With -trace 0 it holds the end-to-end metrics, all
// host-side; with -trace 1 it holds the per-layer metrics of a traced run.
// Every simulated statistic is deterministic, so each operation's outputs
// are compared with the first pass and, at the golden seed, with
// golden.json; a mismatch counts as a failed operation.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// goldenSeed is the seed golden.json was recorded at.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// A workload is a fixed operation list and the set-up it needs. The
// set-up runs again before every pass, so every pass starts from the same
// state (for serve, an empty result cache) and setup_s has one sample per
// pass, spread over the whole run like the passes themselves.
type workload struct {
	name string
	open func(seed uint64) (instance, error)
}

// An instance is a set-up workload, ready to run passes.
type instance interface {
	// pass runs the operation list once, reporting each operation to m.
	// Spans and simulated counts go to tr, which is nil when untraced.
	pass(m *meter, tr *tracer) error
	// probe times direct calls into layers the pass reaches only through
	// other layers, and adds the simulated counts the traced passes left
	// to be read outside their timing. It runs in traced runs only.
	probe(tr *tracer) error
	close() error
}

var workloads = []*workload{nasWorkload, incastWorkload, serveWorkload}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	name := flag.String("workload", "nas", "workload: nas, incast or serve")
	seed := flag.Uint64("seed", goldenSeed, "workload seed")
	seconds := flag.Int("seconds", 20, "how long the timed passes run, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	out := flag.String("out", ".bench_build", "directory for profiles, caches and result records")
	writeGolden := flag.String("write-golden", "", "record every workload's outputs at the golden seed into this file and exit")
	commit := flag.String("commit", "unknown", "git commit of the sources, recorded with the result")
	flag.Parse()

	if *writeGolden != "" {
		if err := recordGolden(*writeGolden); err != nil {
			fatal(err)
		}
		return
	}
	w := lookup(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("invalid -seconds %d: want >= 1", *seconds))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	tmpRoot = *out
	runtime.GOMAXPROCS(runtime.NumCPU())
	budget := time.Duration(*seconds) * time.Second

	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(w, *seed, budget, *out)
	} else {
		res, err = runUntraced(w, *seed, budget)
	}
	if err != nil {
		fatal(err)
	}
	env := environment(*name, *commit, *seed, *seconds, *traced == 1)
	env["samples"] = res.samples
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	for _, msg := range res.check.msgs {
		fmt.Fprintln(os.Stderr, "perfbench: output check:", msg)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.check.failed == 0,
		"attempted": res.check.attempted,
		"failed":    res.check.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		fatal(err)
	}
	record := filepath.Join(*out, fmt.Sprintf("result-%s-seed%d-trace%d.json", *name, *seed, *traced))
	if err := os.WriteFile(record, append(append(envLine, '\n'), line...), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// environment describes the machine and build a result came from, so
// results from different machines or commits are never compared blindly.
func environment(name, commit string, seed uint64, seconds int, traced bool) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	metrics map[string]metric
	samples map[string]any
	check   *checker
}

// opOutput is one operation's simulated outputs, rendered as text.
type opOutput struct{ name, out string }

// meter collects what a pass reports about its operations.
type meter struct {
	outputs  []opOutput
	peakHeap uint64
	ms       runtime.MemStats
	calib    *calibClock // nil when the pass's times are not scaled
}

// done records an operation's outputs, samples the heap at the operation
// boundary and gives the calibration clock its turn.
func (m *meter) done(name string, out string, err error) {
	if err != nil {
		out = "error: " + err.Error()
	}
	m.outputs = append(m.outputs, opOutput{name, out})
	m.calib.tick()
	runtime.ReadMemStats(&m.ms)
	if m.ms.HeapAlloc > m.peakHeap {
		m.peakHeap = m.ms.HeapAlloc
	}
}

// checker compares every pass's outputs with the first pass's and, at the
// golden seed, with the recorded golden outputs.
type checker struct {
	golden    map[string]string
	ref       []opOutput
	attempted int
	failed    int
	msgs      []string
}

func newChecker(workload string, seed uint64) (*checker, error) {
	c := &checker{}
	if seed != goldenSeed {
		return c, nil
	}
	all, err := loadGolden()
	if err != nil {
		return nil, err
	}
	c.golden = all[workload]
	if len(c.golden) == 0 {
		return nil, fmt.Errorf("golden.json has no outputs for workload %q", workload)
	}
	return c, nil
}

func (c *checker) check(outs []opOutput) {
	if c.ref == nil {
		c.ref = outs
	}
	for i, o := range outs {
		c.attempted++
		var why string
		switch {
		case strings.HasPrefix(o.out, "error:"):
			why = o.out
		case i >= len(c.ref) || c.ref[i] != o:
			why = "differs from the first pass: " + o.out
		case c.golden != nil && c.golden[o.name] != o.out:
			why = fmt.Sprintf("got %s, golden %s", o.out, c.golden[o.name])
		}
		if why != "" {
			c.failed++
			if len(c.msgs) < 20 {
				c.msgs = append(c.msgs, o.name+": "+why)
			}
		}
	}
}

// setUp opens an instance and returns how long the set-up took. Garbage
// left by earlier work is collected first, outside the timing.
func setUp(w *workload, seed uint64) (instance, float64, error) {
	runtime.GC()
	start := time.Now()
	inst, err := w.open(seed)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return inst, time.Since(start).Seconds(), nil
}

// passStats is one pass's host cost.
type passStats struct {
	wall, cpu, allocBytes, mallocs float64
	peakHeap                       uint64
}

// cpuSeconds is the process's CPU time, user and system, over all
// threads. With paravirtual time accounting it leaves out time the
// hypervisor gave to other guests, which wall time includes.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runPass runs one pass from a freshly collected heap, so that no pass
// pays for an earlier one's garbage. The calibration job's runs inside
// the pass are left out of its wall and CPU time.
func runPass(inst instance, m *meter, tr *tracer) (passStats, error) {
	var before, after runtime.MemStats
	m.outputs = nil
	m.peakHeap = 0
	runtime.GC()
	runtime.ReadMemStats(&before)
	calib0 := m.calib.total()
	cpu0 := cpuSeconds()
	start := time.Now()
	err := inst.pass(m, tr)
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	inCalib := (m.calib.total() - calib0).Seconds()
	wall -= inCalib
	cpu -= inCalib
	runtime.ReadMemStats(&after)
	return passStats{
		wall:       wall,
		cpu:        cpu,
		allocBytes: float64(after.TotalAlloc - before.TotalAlloc),
		mallocs:    float64(after.Mallocs - before.Mallocs),
		peakHeap:   m.peakHeap,
	}, err
}

// session runs set-ups and passes of one workload and keeps the samples.
type session struct {
	w      *workload
	seed   uint64
	inst   instance
	setups []float64
	check  *checker
}

func openSession(w *workload, seed uint64) (*session, error) {
	c, err := newChecker(w.name, seed)
	if err != nil {
		return nil, err
	}
	return &session{w: w, seed: seed, check: c}, nil
}

// reopen sets the workload up afresh, closing the previous instance.
func (s *session) reopen() error {
	if s.inst != nil {
		if err := s.inst.close(); err != nil {
			return err
		}
		s.inst = nil
	}
	inst, secs, err := setUp(s.w, s.seed)
	if err != nil {
		return err
	}
	s.inst = inst
	s.setups = append(s.setups, secs)
	return nil
}

// pass sets the workload up, runs one pass and checks its outputs.
func (s *session) pass(m *meter, tr *tracer) (passStats, error) {
	if err := s.reopen(); err != nil {
		return passStats{}, err
	}
	ps, err := runPass(s.inst, m, tr)
	if err != nil {
		return ps, fmt.Errorf("%s: pass: %w", s.w.name, err)
	}
	s.check.check(m.outputs)
	return ps, nil
}

func (s *session) close() error {
	if s.inst == nil {
		return nil
	}
	err := s.inst.close()
	s.inst = nil
	return err
}

// runUntraced is the end-to-end measurement: rounds of set-up and pass
// until the budget is spent, reporting medians over set-ups and passes,
// their times scaled to the reference host speed (calib.go).
func runUntraced(w *workload, seed uint64, budget time.Duration) (res *result, err error) {
	s, err := openSession(w, seed)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := s.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	clock := newCalibClock()
	m := &meter{calib: clock}
	var walls, setups, rawWalls, speeds, cpus, allocs, mallocs, peaks []float64
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		clock.burst()
		ps, err := s.pass(m, nil)
		if err != nil {
			return nil, err
		}
		speed := clock.speed()
		speeds = append(speeds, speed)
		setups = append(setups, s.setups[len(s.setups)-1]*calibRef/speed)
		walls = append(walls, ps.wall*calibRef/speed)
		rawWalls = append(rawWalls, ps.wall)
		cpus = append(cpus, ps.cpu)
		allocs = append(allocs, ps.allocBytes)
		mallocs = append(mallocs, ps.mallocs)
		peaks = append(peaks, float64(ps.peakHeap))
	}
	return &result{
		metrics: map[string]metric{
			"setup_s":      {median(setups), "s"},
			"wall_s":       {median(walls), "s"},
			"alloc_mb":     {median(allocs) / 1e6, "MB"},
			"allocs":       {median(mallocs), "count"},
			"peak_heap_mb": {median(peaks) / 1e6, "MB"},
		},
		samples: map[string]any{
			"setups":      len(s.setups),
			"passes":      len(walls),
			"operations":  s.check.attempted,
			"pass_wall_s": rawWalls,
			"pass_cpu_s":  cpus,
			"setup_s":     s.setups,
			"calib_s":     speeds,
			"calib_ref_s": calibRef,
		},
		check: s.check,
	}, nil
}

// median returns the middle value, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// loadGolden parses the embedded golden outputs.
func loadGolden() (map[string]map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return all, nil
}

// recordGolden runs one pass of every workload at the golden seed and
// writes each operation's outputs to path.
func recordGolden(path string) error {
	all := map[string]map[string]string{}
	for _, w := range workloads {
		inst, _, err := setUp(w, goldenSeed)
		if err != nil {
			return err
		}
		m := &meter{}
		_, perr := runPass(inst, m, nil)
		if err := errors.Join(perr, inst.close()); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		outs := map[string]string{}
		for _, o := range m.outputs {
			if strings.HasPrefix(o.out, "error:") {
				return fmt.Errorf("%s: operation %s: %s", w.name, o.name, o.out)
			}
			if prev, ok := outs[o.name]; ok && prev != o.out {
				return fmt.Errorf("%s: operation %s gave %s and %s in one pass", w.name, o.name, prev, o.out)
			}
			outs[o.name] = o.out
		}
		all[w.name] = outs
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
