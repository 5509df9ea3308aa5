package core

import (
	"runtime"
	"testing"

	"smtfetch/internal/bench"
	"smtfetch/internal/config"
	"smtfetch/internal/prog"
	"smtfetch/internal/rng"
)

// newBenchSim builds a simulator for one workload/engine/policy cell and
// warms its caches, predictors, and internal buffers so the measured loop
// reflects steady state, not cold-start allocation.
func newBenchSim(tb testing.TB, workload string, engine config.Engine, fp config.FetchPolicy) *Sim {
	cfg := config.Default()
	cfg.Engine = engine
	cfg.FetchPolicy = fp
	w, err := bench.WorkloadByName(workload)
	if err != nil {
		tb.Fatal(err)
	}
	st := uint64(0xB5EED)
	programs := make([]*prog.Program, len(w.Benchmarks))
	for i, name := range w.Benchmarks {
		p, err := bench.Profile(name)
		if err != nil {
			tb.Fatal(err)
		}
		programs[i] = prog.Build(p, rng.SplitMix64(&st))
	}
	s, err := New(cfg, programs, rng.SplitMix64(&st))
	if err != nil {
		tb.Fatal(err)
	}
	s.Run(50_000, 1_000_000)
	return s
}

// BenchmarkCycle measures the simulator's hot loop, one op per simulated
// cycle, on every cell of the grid {2,4,8}_MIX × all engines × {ICOUNT.1.8,
// FLUSH.2.8}. FLUSH rides along because its flush/replay machinery is the
// most stateful policy path.
//
// The cycle loop must be allocation-free in steady state. allocs/op is
// integer-rounded, so it reads 0 for anything below one allocation per
// cycle; allocs/cycle reports the exact rate (heap mallocs over the timed
// loop divided by cycles) so a gate can catch slower creep too.
func BenchmarkCycle(b *testing.B) {
	policies := []config.FetchPolicy{
		config.ICount18,
		{Policy: config.Flush, Threads: 2, Width: 8},
	}
	for _, w := range []string{"2_MIX", "4_MIX", "8_MIX"} {
		for _, e := range config.Engines() {
			for _, fp := range policies {
				b.Run(w+"/"+e.String()+"/"+fp.String(), func(b *testing.B) {
					s := newBenchSim(b, w, e, fp)
					b.ReportAllocs()
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						s.Cycle()
					}
					b.StopTimer()
					runtime.ReadMemStats(&after)
					b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/cycle")
				})
			}
		}
	}
}
