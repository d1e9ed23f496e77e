package openmxsim

// One testing.B benchmark per table and figure of the paper, at reduced
// scale (Options.Quick) so `go test -bench` stays tractable. Each iteration
// regenerates the full experiment; the interesting output is the experiment
// report itself, printed once via -v or the omxbench command.

import (
	"testing"

	"openmxsim/internal/exp"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, err := exp.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := exp.Options{Seed: 1, Quick: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := runner(opts)
		if len(rep.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkFig4MessageRate regenerates Figure 4 (message rate vs
// coalescing delay for three host configurations).
func BenchmarkFig4MessageRate(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkOverhead regenerates the Section IV-B2 per-packet interrupt
// overhead measurement.
func BenchmarkOverhead(b *testing.B) { benchExperiment(b, "overhead") }

// BenchmarkFig5PingPong regenerates Figure 5 (ping-pong, coalescing vs
// disabled).
func BenchmarkFig5PingPong(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6PingPongOpenMX regenerates Figure 6 (ping-pong with the
// Open-MX coalescing firmware).
func BenchmarkFig6PingPongOpenMX(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkTable1MessageRate regenerates Table I (message rate by size and
// strategy).
func BenchmarkTable1MessageRate(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2LargeAnatomy regenerates Table II (234 KiB transfer time
// and interrupt counts).
func BenchmarkTable2LargeAnatomy(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable2MarkerAblation regenerates the Section IV-C3 per-marker
// ablation.
func BenchmarkTable2MarkerAblation(b *testing.B) { benchExperiment(b, "table2-ablation") }

// BenchmarkTable3Misorder regenerates Table III (mis-ordering impact on
// medium messages).
func BenchmarkTable3Misorder(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4NAS regenerates Table IV at reduced classes (NAS execution
// time by strategy).
func BenchmarkTable4NAS(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5Interrupts regenerates Table V at reduced classes (IS
// interrupt counts).
func BenchmarkTable5Interrupts(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkAdaptiveExtension regenerates the Section VI adaptive-coalescing
// comparison.
func BenchmarkAdaptiveExtension(b *testing.B) { benchExperiment(b, "adaptive") }

// BenchmarkMultiqueueExtension regenerates the Section VI multiqueue
// comparison.
func BenchmarkMultiqueueExtension(b *testing.B) { benchExperiment(b, "multiqueue") }

// BenchmarkJumboExtension regenerates the Section IV-A MTU-9000 check.
func BenchmarkJumboExtension(b *testing.B) { benchExperiment(b, "jumbo") }

// BenchmarkIncastExtension regenerates the N-to-1 incast extension. The
// receiver pre-posts 64 wildcard receives per sender, so this runs the
// deep-posted-queue path of the shared-fabric model.
func BenchmarkIncastExtension(b *testing.B) { benchExperiment(b, "incast") }

// BenchmarkResilienceIncast regenerates incast under bursty loss on a
// sharded cluster (protocol recovery under congestion).
func BenchmarkResilienceIncast(b *testing.B) { benchExperiment(b, "resilience-incast") }
