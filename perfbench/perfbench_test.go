package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"smtfetch/internal/experiment"
	"smtfetch/internal/server"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty samples must give 0")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
}

// A reported tail percentile needs at least ten samples above it; the
// run lengths are sized from samplesFor.
func TestTailPercentileSampleCount(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		n := samplesFor(tc.p)
		if n != tc.want {
			t.Errorf("samplesFor(%v) = %d, want %d", tc.p, n, tc.want)
		}
		if beyond(n, tc.p) < minBeyond || beyond(n-1, tc.p) >= minBeyond {
			t.Errorf("p%v: %d samples leave %d beyond, %d leave %d", tc.p*100, n, beyond(n, tc.p), n-1, beyond(n-1, tc.p))
		}
	}
	// With 1000 samples 1..1000, p99 is 990 and exactly ten lie above it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestRatioBase(t *testing.T) {
	if ratio(3, 0) != 0 {
		t.Error("ratio over an empty base must be 0")
	}
	if got := ratio(3, 12); got != 0.25 {
		t.Errorf("ratio(3, 12) = %v", got)
	}
	rep := newReport()
	rep.attempted, rep.failed = 40, 3
	res := rep.result(endToEnd)
	if res.Attempted != 40 || res.Failed != 3 {
		t.Errorf("result carries %d/%d, want 3 failed of 40 attempted", res.Failed, res.Attempted)
	}
}

// A run's batch count follows its arguments only, so two runs of a seed
// attempt the same operations.
func TestBatchesFixedByArguments(t *testing.T) {
	for _, tc := range []struct {
		seconds, nominal float64
		minimum, want    int
	}{
		{20, 6.5, 1, 4},
		{20, 4.5, 2, 5},
		{1, 6.5, 2, 2},
		{20, 0.185, 13, 109},
		{0.1, 10, 0, 1},
	} {
		if got := batches(tc.seconds, tc.nominal, tc.minimum); got != tc.want {
			t.Errorf("batches(%v, %v, %d) = %d, want %d", tc.seconds, tc.nominal, tc.minimum, got, tc.want)
		}
	}
}

// The pool gets the grid's cells with the most threads first, and no two
// cells in a row of one warm group; the workload seed changes their
// order, never the cells.
func TestCellOrder(t *testing.T) {
	var orders [][]string
	for _, seed := range []uint64{1, 2} {
		g, err := prepareGrid(gridForkedSampled, seed)
		if err != nil {
			t.Fatal(err)
		}
		sw := g.sweep()
		threads := []string{"8_MIX", "4_MIX", "2_MIX"}
		at := 0
		var keys []string
		for i, c := range g.cells {
			for threads[at] != c.Workload {
				at++
				if at == len(threads) {
					t.Fatalf("seed %d: cell %d (%s) out of thread order", seed, i, c.Key())
				}
			}
			if i > 0 && sw.WarmKey(g.cells[i-1]) == sw.WarmKey(c) {
				t.Errorf("seed %d: cells %d and %d (%s) share a warm group", seed, i-1, i, c.Key())
			}
			keys = append(keys, c.Key())
		}
		orders = append(orders, keys)
	}
	if slices.Equal(orders[0], orders[1]) {
		t.Error("seeds 1 and 2 give the same cell order")
	}
	slices.Sort(orders[0])
	slices.Sort(orders[1])
	if !slices.Equal(orders[0], orders[1]) {
		t.Error("seeds 1 and 2 give different cells")
	}
}

// tinyGrid is a grid small enough for tests.
func tinyGrid(mut func(*server.SweepRequest)) gridWorkload {
	req := server.SweepRequest{
		Workloads:     []string{"2_MIX"},
		Engines:       []string{"gshare+BTB", "stream"},
		Policies:      []string{"ICOUNT.2.8", "RR.2.8"},
		WarmupInstrs:  1_000,
		MeasureInstrs: 2_000,
	}
	if mut != nil {
		mut(&req)
	}
	req.Seeds = []uint64{1}
	return gridWorkload{req: req}
}

// A cell that fails is counted against the cells attempted, never
// dropped: a cycle bound too small for a sampled interval fails every cell.
func TestFailingCellsCounted(t *testing.T) {
	g, err := prepareGrid(tinyGrid(func(r *server.SweepRequest) {
		r.Sample = "detail:100,skip:100"
		r.MaxCycles = 5
	}), 1)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := g.passes(2)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	rep.noteGrid(g, ps)
	if rep.attempted != 2*len(g.cells) || rep.failed != rep.attempted {
		t.Fatalf("failed %d of %d attempted, want all %d", rep.failed, rep.attempted, 2*len(g.cells))
	}
	var keys int
	for _, n := range rep.notes {
		if strings.HasPrefix(n, "failed cell ") {
			keys++
		}
	}
	if keys != len(g.cells) {
		t.Errorf("%d failing cell keys printed, want %d", keys, len(g.cells))
	}
}

// The digest of a grid is the same in two runs, and the phase replay
// rebuilds every result byte for byte, cold and warm-forked.
func TestDigestStableAndReplayIdentical(t *testing.T) {
	for _, fork := range []bool{false, true} {
		g, err := prepareGrid(tinyGrid(func(r *server.SweepRequest) {
			if fork {
				r.WarmFork = experiment.WarmForkFork
				r.Sample = "detail:500,skip:500"
			}
		}), 3)
		if err != nil {
			t.Fatal(err)
		}
		a, err := g.run(false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.run(true)
		if err != nil {
			t.Fatal(err)
		}
		if digest(a.doc) != digest(b.doc) {
			t.Errorf("fork=%v: digests %s and %s differ", fork, digest(a.doc), digest(b.doc))
		}
		if fork && (b.warmBuilds != g.warms || g.warms != 2) {
			t.Errorf("traced pass saw %d warm builds, grid has %d groups, want 2", b.warmBuilds, g.warms)
		}
		ph, err := replay(g, b)
		if err != nil {
			t.Fatalf("fork=%v: %v", fork, err)
		}
		if fork && len(ph.snapshotKB) != g.warms {
			t.Errorf("replay built %d checkpoints, want %d", len(ph.snapshotKB), g.warms)
		}
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range stacks {
		if st.count > 0 && slices.Contains(st.funcs, "smtfetch/perfbench.TestParseProfile") {
			found = true
		}
	}
	if !found {
		t.Errorf("no sample names this test among %d stacks", len(stacks))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

// Every service response equals a local sweep of the same grid, and each
// distinct cell is simulated once.
func TestServiceMatchesLocalSweep(t *testing.T) {
	st, err := startStack(true)
	if err != nil {
		t.Fatal(err)
	}
	out := newServed()
	st.drive(newServiceGen(7), 1, out)
	st.close()
	if out.attempted != clients*roundSlots || out.failed != 0 {
		t.Fatalf("%d of %d requests failed", out.failed, out.attempted)
	}
	var bodies []string
	for b := range out.responses {
		bodies = append(bodies, b)
	}
	refs, err := references(bodies)
	if err != nil {
		t.Fatal(err)
	}
	if m, instrs := out.check(refs); m != 0 || instrs == 0 {
		t.Fatalf("%d grids mismatched the local sweep, %d instructions simulated", m, instrs)
	}
	rep := newReport()
	setServiceLayers(rep, st, out, refs)
	if got := rep.values["server.sims_per_distinct_key"]; got != 1 {
		t.Errorf("sims per distinct key = %v, want 1", got)
	}
}

// A cache hit that returns other bytes than the miss before it fails the
// run: the request counts as failed, once, and the run is incorrect. A
// wrong first response fails every request that received it.
func TestServiceMismatchFails(t *testing.T) {
	body := mustJSON(newServiceGen(3).grid([]string{"2_MIX"}, []string{"stream"}, []string{"ICOUNT.2.8"}))
	refs, err := references([]string{string(body)})
	if err != nil {
		t.Fatal(err)
	}
	good := refs[string(body)].doc
	bad := bytes.Replace(good, []byte(`"ipc":`), []byte(`"ipc":1`), 1)
	if bytes.Equal(bad, good) {
		t.Fatal("corruption left the response unchanged")
	}
	for _, tc := range []struct {
		name       string
		docs       [][]byte
		wantFailed int
	}{
		{"corrupt hit", [][]byte{good, bad, good}, 1},
		{"corrupt miss", [][]byte{bad, bad, good}, 2},
		{"all good", [][]byte{good, good}, 0},
	} {
		out := newServed()
		for _, doc := range tc.docs {
			out.record(body, time.Millisecond, doc, nil)
		}
		out.record(body, time.Millisecond, nil, errors.New("connection reset"))
		rep := newReport()
		rep.addServed(out, refs)
		wantFailed := tc.wantFailed + 1 // the reset request
		if rep.attempted != len(tc.docs)+1 || rep.failed != wantFailed {
			t.Errorf("%s: %d of %d requests failed, want %d of %d", tc.name, rep.failed, rep.attempted, wantFailed, len(tc.docs)+1)
		}
		if rep.correct != (tc.wantFailed == 0) {
			t.Errorf("%s: correct = %v", tc.name, rep.correct)
		}
	}
}

func TestServiceMixIsSeeded(t *testing.T) {
	same := func(x, y [clients][roundSlots][]byte) bool {
		for c := range x {
			if !slices.EqualFunc(x[c][:], y[c][:], bytes.Equal) {
				return false
			}
		}
		return true
	}
	a, b, c := newServiceGen(5), newServiceGen(5), newServiceGen(6)
	ra, rb, rc := a.round(), b.round(), c.round()
	if !same(ra, rb) {
		t.Error("the same seed drew different rounds")
	}
	if same(ra, rc) {
		t.Error("different seeds drew the same round")
	}
	fresh := 0
	for c := range ra {
		for _, body := range ra[c] {
			if !slices.ContainsFunc(a.hot, func(h []byte) bool { return bytes.Equal(h, body) }) {
				fresh++
			}
		}
	}
	if want := clients * (1 + freshPerSlot); fresh != want {
		t.Errorf("%d fresh requests in a round, want %d", fresh, want)
	}
}

// The metric and workload names in BENCHMARK.json are the ones the
// benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	for _, c := range []struct {
		json  []struct{ Name, Unit string }
		specs []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.specs) {
			t.Errorf("BENCHMARK.json lists %d metrics, benchmark prints %d", len(c.json), len(c.specs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.specs[i].name || m.Unit != c.specs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, c.specs[i].name, c.specs[i].unit)
			}
		}
	}
}
