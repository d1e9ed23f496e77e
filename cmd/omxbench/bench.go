package main

// Benchmark mode: measure each experiment (wall time and allocations for
// one full regeneration, the moral equivalent of `go test -bench -benchtime
// 1x`) and write one machine-readable BENCH_<id>.json per experiment, so
// every PR can record the simulator's performance trajectory. An optional
// baseline file turns the run into a regression gate: allocation counts and
// allocated bytes are deterministic and therefore gate hard (exit
// non-zero), while wall time varies with the machine and only warns. The
// comparison can also be emitted as a Markdown table for CI job summaries.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"openmxsim/internal/cluster"
	"openmxsim/internal/exp"
	"openmxsim/internal/fabric"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
)

// benchRecord is the schema of BENCH_<id>.json.
type benchRecord struct {
	ID          string `json:"id"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	Rows        int    `json:"rows"`
	Quick       bool   `json:"quick"`
	Seed        uint64 `json:"seed"`
	Reps        int    `json:"reps"`
}

// measure runs one experiment reps times and keeps the fastest wall time
// with its allocation counts (runs are deterministic, so allocations differ
// only by runtime noise; the minimum is the cleanest sample).
func measure(id string, runner exp.Runner, opts exp.Options, reps int) benchRecord {
	rec := benchRecord{ID: id, Quick: opts.Quick, Seed: opts.Seed, Reps: reps}
	for r := 0; r < reps; r++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		rep := runner(opts)
		ns := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&m1)
		if r == 0 || ns < rec.NsPerOp {
			rec.NsPerOp = ns
			rec.BytesPerOp = m1.TotalAlloc - m0.TotalAlloc
			rec.AllocsPerOp = m1.Mallocs - m0.Mallocs
			rec.Rows = len(rep.Rows)
		}
	}
	return rec
}

// runBenchMode measures the given experiments, writes BENCH_<id>.json files
// into outDir, and (with a baseline) enforces the allocs/op and B/op gates,
// warns on ns/op regressions, and optionally writes a Markdown comparison
// table.
func runBenchMode(ids []string, opts exp.Options, reps int, outDir, baselinePath string, maxRegress, maxTimeRegress float64, summaryPath string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var records []benchRecord
	for _, id := range ids {
		runner, err := exp.Get(id)
		if err != nil {
			return err
		}
		rec := measure(id, runner, opts, reps)
		records = append(records, rec)
		b, err := json.MarshalIndent(&rec, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, "BENCH_"+id+".json")
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[bench %-16s %12d ns/op %12d B/op %10d allocs/op]\n",
			id, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp)
	}
	if b, err := json.MarshalIndent(records, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(outDir, "BENCH_all.json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	var gateErr error
	if baselinePath == "" {
		if summaryPath != "" {
			// No baseline to compare against: the summary still gets the raw
			// measurements rather than silently staying empty.
			var md strings.Builder
			md.WriteString("### Benchmark measurements (no baseline)\n\n")
			md.WriteString("| experiment | ns/op | B/op | allocs/op |\n|---|---:|---:|---:|\n")
			var ns, bs, allocs []float64
			for _, rec := range records {
				fmt.Fprintf(&md, "| %s | %d | %d | %d |\n", rec.ID, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp)
				ns = append(ns, float64(rec.NsPerOp))
				bs = append(bs, float64(rec.BytesPerOp))
				allocs = append(allocs, float64(rec.AllocsPerOp))
			}
			fmt.Fprintf(&md, "| **geomean** | %.0f | %.0f | %.0f |\n",
				geomean(ns), geomean(bs), geomean(allocs))
			if err := writeSummary(summaryPath, md.String()); err != nil {
				return err
			}
		}
	} else {
		gateErr = checkBaseline(records, baselinePath, maxRegress, maxTimeRegress, summaryPath)
	}
	// The parallel-engine A/B rides along with every summary request so the
	// job summary always shows what sharding buys (or costs) on this
	// machine; it runs after the gate so a gate failure still reports it.
	if summaryPath != "" {
		if err := writeSummary(summaryPath, parAB(opts.Seed)); err != nil {
			return err
		}
	}
	return gateErr
}

// parAB measures the sharded conservative engine against the serial
// reference on the workload parallelism exists for — a 64-node incast on
// the bounded output-queued fabric — and returns a Markdown section for
// the job summary. The two runs must produce identical measurements (the
// engine's determinism contract); the row reports the wall-clock ratio,
// which depends on the machine's core count (a single-core runner pays the
// barrier overhead with no parallelism to win it back).
func parAB(seed uint64) string {
	cfg := cluster.Paper()
	cfg.Seed = seed
	cfg.Nodes = 64
	cfg.Topology = fabric.Topology{
		Kind:              fabric.TopologyOutputQueued,
		EgressQueueFrames: 64,
	}
	run := func(par int) (sweep.IncastResult, time.Duration) {
		c := cfg
		c.Parallelism = par
		start := time.Now()
		res := sweep.RunIncast(sweep.IncastSpec{
			Cluster: c, Senders: cfg.Nodes - 1, Size: 128,
			Warmup: 5 * sim.Millisecond, Measure: 40 * sim.Millisecond,
		})
		return res, time.Since(start)
	}
	r1, t1 := run(1)
	r8, t8 := run(8)
	// Struct equality via reflect: IncastResult grew a port-stats slice, so
	// == no longer compiles; DeepEqual keeps the identity check exhaustive.
	identical := reflect.DeepEqual(r1, r8)

	var md strings.Builder
	fmt.Fprintf(&md, "### Parallel engine A/B: 64-node incast, %d cores\n\n", runtime.NumCPU())
	md.WriteString("| par | wall ms | speedup | msg/s | identical |\n|---:|---:|---:|---:|---|\n")
	fmt.Fprintf(&md, "| 1 | %.0f | 1.00x | %.0f | — |\n", float64(t1.Microseconds())/1000, r1.Rate)
	fmt.Fprintf(&md, "| 8 | %.0f | %.2fx | %.0f | %v |\n",
		float64(t8.Microseconds())/1000, t1.Seconds()/t8.Seconds(), r8.Rate, identical)
	fmt.Fprintf(os.Stderr, "[bench par A/B: par1 %.0fms par8 %.0fms speedup %.2fx identical %v]\n",
		float64(t1.Microseconds())/1000, float64(t8.Microseconds())/1000,
		t1.Seconds()/t8.Seconds(), identical)
	return md.String()
}

// checkBaseline fails when any experiment's allocs/op or B/op exceeds the
// baseline by more than maxRegress (fractional). Wall time regressions beyond
// maxTimeRegress only warn: runners vary, while allocation counts of a
// deterministic simulation do not. When summaryPath is non-empty the full
// comparison is also written there as a Markdown table (CI appends it to
// the job summary).
func checkBaseline(records []benchRecord, path string, maxRegress, maxTimeRegress float64, summaryPath string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench baseline: %w", err)
	}
	var base []benchRecord
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("bench baseline %s: %w", path, err)
	}
	byID := make(map[string]benchRecord, len(base))
	for _, b := range base {
		byID[b.ID] = b
	}
	var failures, warnings []string
	var timeRatios, allocRatios, byteRatios []float64
	var md strings.Builder
	fmt.Fprintf(&md, "### Benchmark comparison vs `%s`\n\n", path)
	md.WriteString("| experiment | ns/op | vs base | B/op | vs base | allocs/op | vs base | status |\n")
	md.WriteString("|---|---:|---:|---:|---:|---:|---:|---|\n")
	for _, rec := range records {
		b, ok := byID[rec.ID]
		if !ok || b.AllocsPerOp == 0 {
			fmt.Fprintf(&md, "| %s | %d | — | %d | — | %d | — | new |\n",
				rec.ID, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp)
			continue // new experiment or unusable baseline entry
		}
		allocRatio := float64(rec.AllocsPerOp) / float64(b.AllocsPerOp)
		allocRatios = append(allocRatios, allocRatio)
		// A zero baseline bytes_per_op (older snapshot) disables only the
		// bytes comparison.
		byteCell := "—"
		if b.BytesPerOp > 0 {
			byteRatio := float64(rec.BytesPerOp) / float64(b.BytesPerOp)
			byteCell = fmt.Sprintf("%+.1f%%", (byteRatio-1)*100)
			byteRatios = append(byteRatios, byteRatio)
		}
		// A zero baseline ns_per_op (older or hand-edited snapshot) only
		// disables the time comparison — the allocs gate still applies.
		timeCell := "—"
		timeRatio := 0.0
		if b.NsPerOp > 0 {
			timeRatio = float64(rec.NsPerOp) / float64(b.NsPerOp)
			timeCell = fmt.Sprintf("%+.1f%%", (timeRatio-1)*100)
			timeRatios = append(timeRatios, timeRatio)
		}
		// The gates are independent: an experiment can regress several, and
		// the report must say so for each.
		var statuses []string
		if rec.AllocsPerOp > uint64(float64(b.AllocsPerOp)*(1+maxRegress)) {
			statuses = append(statuses, "ALLOC REGRESSION")
			failures = append(failures, fmt.Sprintf(
				"%s: %d allocs/op vs baseline %d (limit %.0f%%)",
				rec.ID, rec.AllocsPerOp, b.AllocsPerOp, maxRegress*100))
		}
		if b.BytesPerOp > 0 && rec.BytesPerOp > uint64(float64(b.BytesPerOp)*(1+maxRegress)) {
			statuses = append(statuses, "BYTES REGRESSION")
			failures = append(failures, fmt.Sprintf(
				"%s: %d B/op vs baseline %d (limit %.0f%%)",
				rec.ID, rec.BytesPerOp, b.BytesPerOp, maxRegress*100))
		}
		if timeRatio > 1+maxTimeRegress {
			statuses = append(statuses, "time regression (warning)")
			warnings = append(warnings, fmt.Sprintf(
				"%s: %d ns/op vs baseline %d (+%.0f%%, threshold +%.0f%%)",
				rec.ID, rec.NsPerOp, b.NsPerOp, (timeRatio-1)*100, maxTimeRegress*100))
		}
		status := "ok"
		if len(statuses) > 0 {
			status = strings.Join(statuses, ", ")
		}
		fmt.Fprintf(&md, "| %s | %d | %s | %d | %s | %d | %+.1f%% | %s |\n",
			rec.ID, rec.NsPerOp, timeCell, rec.BytesPerOp, byteCell, rec.AllocsPerOp, (allocRatio-1)*100, status)
	}
	// The geomean row is the run's one headline number: the average
	// multiplicative drift vs the baseline across all comparable
	// experiments (geometric, so a 2x regression and a 2x win cancel).
	geoCell := func(ratios []float64) string {
		if len(ratios) == 0 {
			return "—"
		}
		return fmt.Sprintf("%+.1f%%", (geomean(ratios)-1)*100)
	}
	fmt.Fprintf(&md, "| **geomean** | — | %s | — | %s | — | %s | %d of %d compared |\n",
		geoCell(timeRatios), geoCell(byteRatios), geoCell(allocRatios), len(allocRatios), len(records))
	if summaryPath != "" {
		if err := writeSummary(summaryPath, md.String()); err != nil {
			return err
		}
	}
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "TIME REGRESSION (warning):", w)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "ALLOC REGRESSION:", f)
		}
		return fmt.Errorf("bench: %d allocs/op or B/op regression(s) beyond %.0f%%", len(failures), maxRegress*100)
	}
	fmt.Fprintf(os.Stderr, "[bench baseline ok: %d experiments, %d time warnings, allocs and bytes within %.0f%% of %s]\n",
		len(records), len(warnings), maxRegress*100, path)
	return nil
}

// geomean returns the geometric mean of vs (0 when empty; zero entries
// would collapse the product and are skipped).
func geomean(vs []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// writeSummary appends markdown to the given file ("-" = stdout). Appending
// (not truncating) matches $GITHUB_STEP_SUMMARY semantics when CI points it
// straight at that file.
func writeSummary(path, md string) error {
	var w io.WriteCloser
	if path == "-" {
		w = os.Stdout
	} else {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		w = f
	}
	_, err := io.WriteString(w, md+"\n")
	if path != "-" {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
