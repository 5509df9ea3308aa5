package main

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smtfetch"
	"smtfetch/internal/bench"
	"smtfetch/internal/experiment"
	"smtfetch/internal/server"
)

// gridDetail is a cold, full-detail grid: nearly all host time is the
// core cycle loop; the checkpoint and service layers stay idle. Each pass
// runs three replication seeds, so a pass averages over three program
// instances per configuration.
var gridDetail = gridWorkload{
	req: server.SweepRequest{
		Workloads:     []string{"2_MIX", "4_MIX", "8_MIX"},
		Engines:       []string{"gshare+BTB", "gskew+FTB", "stream"},
		Policies:      []string{"ICOUNT.1.8", "ICOUNT.2.8", "FLUSH.2.8"},
		Seeds:         []uint64{1, 2, 3},
		WarmupInstrs:  10_000,
		MeasureInstrs: 40_000,
	},
	passS: 4.5,
}

// gridForkedSampled warms once per group, checkpoints, forks every
// policy cell from the checkpoint and measures it SMARTS-style: 5% of
// the measured span in cycle-level detail, the rest fast-forwarded. The
// warm-up is cycle-based, so its cost does not follow the programs' IPC:
// an instruction-based warm-up of a low-IPC 8_MIX group took four times
// as long as the others and set the pass time.
//
// Replication seed 1's 8_MIX/stream ICOUNT.2.8 and RR.2.8 cells never
// drain (core: pipeline failed to drain), a known defect that every pass
// counts as two failed cells. MaxCycles bounds every phase: at the
// default 50M-cycle bound each such cell spins about 14 s, at 2M it fails
// in about a second. It cannot go much lower: cells that complete take up
// to 1.7M cycles, and a 200k bound fails some of them.
var gridForkedSampled = gridWorkload{
	req: server.SweepRequest{
		Workloads:     []string{"2_MIX", "4_MIX", "8_MIX"},
		Engines:       []string{"stream", "gshare+BTB"},
		Policies:      []string{"ICOUNT.2.8", "RR.2.8", "MISSCOUNT.2.8", "STALL.2.8", "FLUSH.2.8"},
		Seeds:         []uint64{1, 2, 3},
		WarmupInstrs:  1_000,
		WarmupCycles:  100_000,
		MeasureInstrs: 10_000,
		MaxCycles:     2_000_000,
		Sample:        "detail:1000,skip:19000",
		WarmFork:      experiment.WarmForkFork,
	},
	passS: 5.5,
}

// gridWorkload is a grid, replication seeds included, and the nominal
// seconds of one pass that sizes a run (see batches). The grid is the
// same for every workload seed: replication seeds drawn from the
// workload seed made a run's cost and memory heavy-tailed, as a few
// program instances stream through memory (see README.md).
type gridWorkload struct {
	req   server.SweepRequest
	passS float64
}

// grid is one prepared grid workload: the request it was built from, the
// validated cells in the order the pool receives them, and the number of
// warm-ups one pass simulates.
type grid struct {
	req   server.SweepRequest
	cells []experiment.Cell
	warms int
}

// prepareGrid builds the grid and the order of its cells for a workload
// seed. Cells with more threads cost more per cycle, so the pool receives
// them first, which keeps a long cell from starting last and leaving one
// worker alone at the end of a pass. Within a thread count, the cells are
// dealt round-robin over the warm-up groups (over single cells, for a
// cold grid), so the workers warm different groups side by side instead
// of one waiting for the other's checkpoint; the seed shuffles the order
// of the groups. Results are sorted by key, so the order never shows in
// them.
func prepareGrid(gw gridWorkload, seed uint64) (*grid, error) {
	req := gw.req
	sw, err := req.Sweep()
	if err != nil {
		return nil, err
	}
	cells, err := sw.Prepare()
	if err != nil {
		return nil, err
	}
	threads := map[string]int{}
	byGroup := map[string][]experiment.Cell{}
	var groups []string
	for _, c := range cells {
		w, err := bench.WorkloadByName(c.Workload)
		if err != nil {
			return nil, err
		}
		threads[c.Workload] = w.Threads()
		k := c.Key()
		if sw.WarmFork != experiment.WarmForkOff {
			k = sw.WarmKey(c)
		}
		if byGroup[k] == nil {
			groups = append(groups, k)
		}
		byGroup[k] = append(byGroup[k], c)
	}
	groupThreads := func(k string) int { return threads[byGroup[k][0].Workload] }
	rng := rand.New(rand.NewPCG(seed, 0x6721d))
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	slices.SortStableFunc(groups, func(a, b string) int { return cmp.Compare(groupThreads(b), groupThreads(a)) })
	ordered := make([]experiment.Cell, 0, len(cells))
	for i := 0; i < len(groups); {
		j := i
		for j < len(groups) && groupThreads(groups[j]) == groupThreads(groups[i]) {
			j++
		}
		for r := 0; len(ordered) < len(cells); r++ {
			dealt := false
			for _, k := range groups[i:j] {
				if r < len(byGroup[k]) {
					ordered = append(ordered, byGroup[k][r])
					dealt = true
				}
			}
			if !dealt {
				break
			}
		}
		i = j
	}
	warms := len(cells)
	if sw.WarmFork == experiment.WarmForkFork {
		warms = len(groups)
	}
	return &grid{req: req, cells: ordered, warms: warms}, nil
}

// sweep returns a fresh sweep for one pass. A Sweep memoizes warm
// checkpoints across RunCells calls, so reusing one would skip the
// warm-ups of every pass after the first.
func (g *grid) sweep() *experiment.Sweep {
	sw, err := g.req.Sweep()
	if err != nil {
		panic(fmt.Sprintf("perfbench: grid request stopped validating: %v", err))
	}
	sw.Jobs = jobs
	return sw
}

// pass is one execution of the whole grid.
type pass struct {
	wall    time.Duration
	results []experiment.Result
	doc     []byte
	// cellMS are the per-cell spans, from the pool picking a cell up to
	// its result, in completion order.
	cellMS []float64
	// slowest names the cell with the longest span.
	slowest string
	// warmBuilds counts checkpoint builds seen by Sweep.SnapshotSource;
	// only set on traced passes.
	warmBuilds int
}

// failed counts the pass's failed cells.
func (p *pass) failed() int {
	n := 0
	for _, r := range p.results {
		if r.Error != "" {
			n++
		}
	}
	return n
}

// measuredInstrs is the committed instructions of the pass's measure
// phases: for sampled cells, the detail intervals and the drains between
// them. Fast-forwarded instructions are not counted.
func (p *pass) measuredInstrs() uint64 {
	var n uint64
	for _, r := range p.results {
		if r.Stats != nil {
			n += r.Stats.Committed
		}
	}
	return n
}

// warmupInstrs is the committed instructions of one pass's warm-ups. An
// instruction-based warm-up commits its nominal length, to within one
// commit group; a cycle-based one commits what the programs' IPC allows,
// so each distinct warm-up is simulated once more, outside the timed
// passes, to count them.
func (g *grid) warmupInstrs() (uint64, error) {
	if g.req.WarmupCycles == 0 {
		return uint64(g.warms) * g.req.WarmupInstrs, nil
	}
	sw := g.sweep()
	sample, err := smtfetch.ParseSample(sw.Sample)
	if err != nil {
		return 0, err
	}
	var warms []smtfetch.Options
	seen := map[string]bool{}
	for _, c := range g.cells {
		key := c.Key()
		if sw.WarmFork != experiment.WarmForkOff {
			key = sw.WarmKey(c)
		}
		if !seen[key] {
			seen[key] = true
			warms = append(warms, options(sw, c, sample))
		}
	}
	counts := make([]uint64, len(warms))
	errs := make([]error, len(warms))
	forEach(len(warms), func(i int) {
		sim, err := smtfetch.New(warms[i])
		if err != nil {
			errs[i] = err
			return
		}
		sim.Warm()
		counts[i] = sim.Core().Stats().Committed
	})
	var total uint64
	for _, n := range counts {
		total += n
	}
	return total, errors.Join(errs...)
}

// run executes one pass. Per-cell spans come from the sweep's public
// hooks: a ResultSource that notes the start and declines, and OnResult.
// traced additionally routes checkpoint builds through a counting
// SnapshotSource that calls the builder unchanged.
func (g *grid) run(traced bool) (*pass, error) {
	sw := g.sweep()
	var (
		mu     sync.Mutex
		start  = make(map[string]time.Time, len(g.cells))
		spans  = make([]float64, 0, len(g.cells))
		builds atomic.Int64
		slow   float64
		slowID string
	)
	src := func(c experiment.Cell) (experiment.Result, bool) {
		mu.Lock()
		start[c.Key()] = time.Now()
		mu.Unlock()
		return experiment.Result{}, false
	}
	sw.OnResult = func(_, _ int, r experiment.Result) {
		end := time.Now()
		mu.Lock()
		d := ms(end.Sub(start[r.Key()]))
		spans = append(spans, d)
		if d > slow {
			slow, slowID = d, r.Key()
		}
		mu.Unlock()
	}
	if traced {
		sw.SnapshotSource = func(_ string, build func() ([]byte, error)) ([]byte, error) {
			builds.Add(1)
			return build()
		}
	}
	t0 := time.Now()
	results, _ := sw.RunCells(g.cells, src) // failed cells are in their results
	wall := time.Since(t0)
	doc, err := experiment.MarshalJSONResults(results)
	if err != nil {
		return nil, fmt.Errorf("marshal results: %w", err)
	}
	return &pass{wall: wall, results: results, doc: doc, cellMS: spans, slowest: fmt.Sprintf("%s (%.1f ms)", slowID, slow), warmBuilds: int(builds.Load())}, nil
}

// passes runs the grid untraced n times, checking that every pass
// reproduces the first one's result bytes.
func (g *grid) passes(n int) ([]*pass, error) {
	var ps []*pass
	for len(ps) < n {
		p, err := g.run(false)
		if err != nil {
			return nil, err
		}
		if len(ps) > 0 && !bytes.Equal(p.doc, ps[0].doc) {
			return nil, fmt.Errorf("pass %d results differ from pass 1 (digest %s vs %s)", len(ps)+1, digest(p.doc), digest(ps[0].doc))
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// digest is a short hex SHA-256 of a results document.
func digest(doc []byte) string {
	h := sha256.Sum256(doc)
	return hex.EncodeToString(h[:12])
}

// runGrid runs a grid workload: set-up, then timed passes; with trace,
// untraced passes alternating with traced ones under the CPU profiler,
// then the phase-by-phase replay of every cell.
func runGrid(gw gridWorkload, cfg runConfig) (*report, error) {
	rep := newReport()
	var g *grid
	setup, err := setupTime(func() (time.Duration, error) {
		t0 := time.Now()
		var err error
		g, err = prepareGrid(gw, cfg.seed)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	minPasses := (samplesFor(0.9) + len(g.cells) - 1) / len(g.cells)

	if !cfg.trace {
		ps, err := g.passes(batches(cfg.seconds, gw.passS, minPasses))
		if err != nil {
			return nil, err
		}
		rep.noteGrid(g, ps)
		var walls, spans []float64
		for _, p := range ps {
			walls = append(walls, p.wall.Seconds())
			spans = append(spans, p.cellMS...)
		}
		warm, err := g.warmupInstrs()
		if err != nil {
			return nil, fmt.Errorf("count warm-up instructions: %w", err)
		}
		// Every pass simulates the same instructions, so the rates are
		// one pass's work over the median pass, as robust as grid_s.
		gridS := median(walls)
		rep.set("setup_s", setup)
		rep.set("grid_s", gridS)
		rep.set("op_ms_p50", percentile(spans, 0.5))
		rep.set("op_ms_p90", percentile(spans, 0.9))
		rep.set("ops_per_s", ratio(float64(len(g.cells)), gridS))
		rep.set("minstr_per_s", ratio(float64(warm+ps[0].measuredInstrs())/1e6, gridS))
		rep.notef("ops: %d cells in %d passes; op_ms_p90 has %d cells beyond it", len(spans), len(ps), beyond(len(spans), 0.9))
		return rep, nil
	}

	// Untraced and traced passes alternate, so drift on the host falls
	// on both sides of trace.overhead_pct alike.
	var plain, traced []*pass
	var prof stageProfile
	for pairs := batches(cfg.seconds, 2*gw.passS, 1); len(plain) < pairs; {
		p, err := g.run(false)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
		t, err := g.run(true)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if err := prof.add(buf.Bytes()); err != nil {
			return nil, fmt.Errorf("CPU profile: %w", err)
		}
		want := p.doc
		if len(plain) > 0 {
			want = plain[0].doc
		}
		for _, x := range []*pass{p, t} {
			if !bytes.Equal(x.doc, want) {
				return nil, fmt.Errorf("traced or repeated pass results differ (digest %s vs %s)", digest(x.doc), digest(want))
			}
		}
		plain, traced = append(plain, p), append(traced, t)
	}
	rep.noteGrid(g, append(plain, traced...))
	for name, v := range prof.shares() {
		rep.set(name, v)
	}

	var plainWalls, tracedWalls, spans []float64
	var busyMS float64
	var builds, forks int
	for _, p := range plain {
		plainWalls = append(plainWalls, p.wall.Seconds())
	}
	for _, p := range traced {
		tracedWalls = append(tracedWalls, p.wall.Seconds())
		spans = append(spans, p.cellMS...)
		busyMS += ms(p.wall) * float64(jobs)
		builds += p.warmBuilds
		if p.warmBuilds > 0 {
			forks += len(g.cells)
		}
	}
	rep.notef("slowest cell of the first traced pass: %s", traced[0].slowest)
	rep.set("experiment.cell_ms_p50", percentile(spans, 0.5))
	rep.set("experiment.cell_ms_max", percentile(spans, 1))
	rep.set("experiment.pool_busy_ratio", ratio(sum(spans), busyMS))
	rep.set("experiment.warm_builds", ratio(float64(builds), float64(len(traced))))
	rep.set("experiment.forks_per_warm", ratio(float64(forks), float64(builds)))
	rep.set("trace.overhead_pct", 100*ratio(median(tracedWalls)-median(plainWalls), median(plainWalls)))

	rp, err := replay(g, traced[0])
	if err != nil {
		return nil, err
	}
	rp.report(rep)
	if g.req.Sample != "" {
		errPct, n, err := sampledIPCError(g, traced[0].results, rp.blobs)
		if err != nil {
			return nil, err
		}
		rep.set("smtfetch.sampled_ipc_err_pct", errPct)
		rep.notef("sampled_ipc_err_pct: %.4f %% over %d cells, against full detail of the same span from the same checkpoint", errPct, n)
	}
	setSimStats(rep, traced[0].results)
	return rep, nil
}

// noteGrid records the grid's cell counts, failed cells and digest.
func (rep *report) noteGrid(g *grid, ps []*pass) {
	for _, p := range ps {
		rep.attempted += len(p.results)
		rep.failed += p.failed()
	}
	for _, r := range ps[0].results {
		if r.Error != "" {
			rep.notef("failed cell %s: %s", r.Key(), r.Error)
		}
	}
	rep.notef("digest %s (%d cells, identical over %d passes)", digest(ps[0].doc), len(g.cells), len(ps))
	walls := make([]string, len(ps))
	for i, p := range ps {
		walls[i] = fmt.Sprintf("%.3f", p.wall.Seconds())
	}
	rep.notef("pass walls (s): %s", strings.Join(walls, " "))
}
