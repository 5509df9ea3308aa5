package smtfetch

import (
	"math"
	"testing"
)

func TestParseSample(t *testing.T) {
	sp, err := ParseSample("detail:1000,skip:9000")
	if err != nil || sp.DetailInstrs != 1000 || sp.SkipInstrs != 9000 {
		t.Fatalf("ParseSample = %+v, %v", sp, err)
	}
	if sp.String() != "detail:1000,skip:9000" {
		t.Fatalf("String = %q", sp.String())
	}
	// Key order is free; everything else is not.
	if _, err := ParseSample("skip:9000,detail:1000"); err != nil {
		t.Fatalf("reordered keys rejected: %v", err)
	}
	// warm is optional; when present it must round-trip through String.
	sp, err = ParseSample("detail:1000,skip:9000,warm:2000")
	if err != nil || sp.WarmInstrs != 2000 {
		t.Fatalf("ParseSample with warm = %+v, %v", sp, err)
	}
	if sp.String() != "detail:1000,skip:9000,warm:2000" {
		t.Fatalf("String with warm = %q", sp.String())
	}
	if sp, err := ParseSample(""); err != nil || sp.Enabled() {
		t.Fatalf("empty spec = %+v, %v", sp, err)
	}
	for _, bad := range badSampleSpecs {
		if _, err := ParseSample(bad); err == nil {
			t.Errorf("ParseSample(%q) accepted", bad)
		}
	}
}

// badSampleSpecs are specs ParseSample must reject.
var badSampleSpecs = []string{
	"detail:1000",            // missing skip
	"skip:9000",              // missing detail
	"detail:0,skip:1",        // zero count
	"detail:1,skip:0",        // zero count
	"detail:1,detail:2",      // duplicate key
	"detail:x,skip:1",        // non-numeric
	"detail:1,skip:1,warm:0", // zero warm (omit the key instead)
	"cadence:5",              // unknown key
	"detail=1000,skip=9000",  // wrong separator
}

// FuzzParseSample checks the properties a canonical cache key relies on:
// ParseSample never panics, every accepted spec's String parses back to
// the same SampleSpec, and String is a fixed point of parse-then-render.
func FuzzParseSample(f *testing.F) {
	for _, s := range append([]string{
		"",
		"detail:1000,skip:9000",
		"skip:9000,detail:1000",
		"detail:1000,skip:9000,warm:2000",
		"detail:1000, skip:19000",
		"detail:01000,skip:19000",
	}, badSampleSpecs...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSample(s)
		if err != nil {
			return
		}
		canon := sp.String()
		again, err := ParseSample(canon)
		if err != nil {
			t.Fatalf("ParseSample(%q) accepted, but its String %q is rejected: %v", s, canon, err)
		}
		if again != sp {
			t.Fatalf("ParseSample(%q) = %+v, but its String %q parses to %+v", s, sp, canon, again)
		}
		if again.String() != canon {
			t.Fatalf("String is not a fixed point: %q -> %q", canon, again.String())
		}
	})
}

func sampledOpts() Options {
	return Options{
		Workload:      "2_MIX",
		WarmupInstrs:  10_000,
		MeasureInstrs: 30_000,
		Sample:        SampleSpec{DetailInstrs: 3_000, SkipInstrs: 7_000},
	}
}

func TestSampledRunDeterministic(t *testing.T) {
	a, err := Run(sampledOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sampledOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC || a.SampleIntervals != b.SampleIntervals || a.IPCCI95 != b.IPCCI95 {
		t.Fatalf("sampled runs diverge: %+v vs %+v", a, b)
	}
}

func TestSampledRunTracksFullDetail(t *testing.T) {
	full, err := Run(Options{Workload: "2_MIX", WarmupInstrs: 10_000, MeasureInstrs: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Run(sampledOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sampled.SampleIntervals < 2 {
		t.Fatalf("SampleIntervals = %d, want >= 2", sampled.SampleIntervals)
	}
	if sampled.IPCCI95 <= 0 {
		t.Fatalf("IPCCI95 = %v, want > 0", sampled.IPCCI95)
	}
	if full.SampleIntervals != 0 || full.IPCCI95 != 0 {
		t.Fatalf("full-detail run carries sampled fields: %+v", full)
	}
	// The sampled estimate measures a different (sparser) instruction
	// population, so exact agreement is not expected — but it must land in
	// the same neighborhood as the exhaustive measurement.
	if relErr := math.Abs(sampled.IPC-full.IPC) / full.IPC; relErr > 0.25 {
		t.Fatalf("sampled IPC %.3f vs full-detail %.3f: relative error %.3f", sampled.IPC, full.IPC, relErr)
	}
}

func TestSampledRunMeasuresFewerCyclesInDetail(t *testing.T) {
	// detail:3000,skip:7000 with 30k measured instructions covers roughly
	// a 100k-instruction program span (30k in detail, ~70k fast-forwarded).
	// A full-detail run over the same span must spend far more cycles in
	// the detailed pipeline — that cycle ratio is the whole point of
	// sampling. The factor-2 bound is deliberately loose next to the
	// ~(N+M)/N ≈ 3.3x ideal, leaving room for drain overhead.
	full, err := Run(Options{Workload: "2_MIX", WarmupInstrs: 10_000, MeasureInstrs: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Run(sampledOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Stats.Cycles*2 >= full.Stats.Cycles {
		t.Fatalf("sampled run spent %d detailed cycles, full-span run %d: sampling saved under 2x",
			sampled.Stats.Cycles, full.Stats.Cycles)
	}
}
