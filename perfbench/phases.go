package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"smtfetch"
	"smtfetch/internal/config"
	"smtfetch/internal/experiment"
)

// phases holds the per-call timings of a cell replay.
type phases struct {
	newMS, warmMS, measureMS              []float64
	snapshotMS, snapshotKB                []float64
	restoreMS, setPolicyMS                []float64
	measureNS                             int64
	measureCycles, measureInstrs, mallocs uint64
	blobs                                 map[string][]byte
}

// replay re-executes every cell of the grid one at a time through the
// public phase API (smtfetch.New, Warm, Core().Snapshot/Restore/
// SetPolicy, Measure), timing each call, and checks that the rebuilt
// results are byte-identical to the sweep's. It follows the sweep's own
// recipe: cold cells warm under their own policy and seed; warm-fork
// cells restore their group's checkpoint, warmed once under the group's
// ICOUNT policy and seed.
func replay(g *grid, p *pass) (*phases, error) {
	sw := g.sweep()
	sample, err := smtfetch.ParseSample(sw.Sample)
	if err != nil {
		return nil, err
	}
	ph := &phases{blobs: map[string][]byte{}}
	results := make([]experiment.Result, 0, len(g.cells))
	for _, c := range g.cells {
		r := experiment.Result{Workload: c.Workload, Engine: c.Engine.String(), Policy: c.Policy.String(), Seed: c.Seed}
		res, err := ph.cell(sw, c, sample)
		if err != nil {
			r.Error = err.Error()
		} else {
			snap := res.Stats.Snapshot()
			r.IPC, r.IPFC, r.CondAccuracy = res.IPC, res.IPFC, res.CondAccuracy
			r.Stats = &snap
			r.SampleIntervals, r.IPCCI95 = res.SampleIntervals, res.IPCCI95
		}
		results = append(results, r)
	}
	experiment.SortResults(results)
	doc, err := experiment.MarshalJSONResults(results)
	if err != nil {
		return nil, fmt.Errorf("marshal replayed results: %w", err)
	}
	if !bytes.Equal(doc, p.doc) {
		return nil, fmt.Errorf("phase replay results differ from the sweep's (digest %s vs %s)", digest(doc), digest(p.doc))
	}
	return ph, nil
}

// options are the simulator options the sweep uses for a cell.
func options(sw *experiment.Sweep, c experiment.Cell, sample smtfetch.SampleSpec) smtfetch.Options {
	seedCell := c
	if sw.WarmFork != experiment.WarmForkOff {
		seedCell.Policy.Policy = config.ICount
	}
	return smtfetch.Options{
		Workload:      c.Workload,
		Engine:        c.Engine,
		Policy:        seedCell.Policy,
		Seed:          experiment.CellSeed(seedCell),
		WarmupInstrs:  sw.WarmupInstrs,
		WarmupCycles:  sw.WarmupCycles,
		MeasureInstrs: sw.MeasureInstrs,
		MaxCycles:     sw.MaxCycles,
		Machine:       sw.Machine,
		Sample:        sample,
	}
}

// cell replays one cell, phase by phase.
func (ph *phases) cell(sw *experiment.Sweep, c experiment.Cell, sample smtfetch.SampleSpec) (*smtfetch.Result, error) {
	opts := options(sw, c, sample)
	var sim *smtfetch.Simulator
	err := ph.span(&ph.newMS, func() (err error) {
		sim, err = smtfetch.New(opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	if sw.WarmFork == experiment.WarmForkOff {
		ph.span(&ph.warmMS, func() error { sim.Warm(); return nil })
	} else {
		blob, err := ph.checkpoint(sw.WarmKey(c), opts)
		if err != nil {
			return nil, fmt.Errorf("warm checkpoint: %w", err)
		}
		if err := ph.span(&ph.restoreMS, func() error { return sim.Core().Restore(blob) }); err != nil {
			return nil, fmt.Errorf("warm checkpoint restore: %w", err)
		}
		if err := ph.span(&ph.setPolicyMS, func() error { return sim.Core().SetPolicy(c.Policy) }); err != nil {
			return nil, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := sim.Measure()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	ph.measureMS = append(ph.measureMS, ms(d))
	if err != nil {
		return nil, err
	}
	ph.measureNS += int64(d)
	ph.measureCycles += res.Stats.Cycles
	ph.measureInstrs += res.Stats.Committed
	ph.mallocs += after.Mallocs - before.Mallocs
	return res, nil
}

// checkpoint returns the warm checkpoint for a warm key, building it once
// (New, Warm, Snapshot) on first use.
func (ph *phases) checkpoint(key string, opts smtfetch.Options) ([]byte, error) {
	if blob, ok := ph.blobs[key]; ok {
		return blob, nil
	}
	var warm *smtfetch.Simulator
	err := ph.span(&ph.newMS, func() (err error) {
		warm, err = smtfetch.New(opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	ph.span(&ph.warmMS, func() error { warm.Warm(); return nil })
	var blob []byte
	if err := ph.span(&ph.snapshotMS, func() (err error) {
		blob, err = warm.Core().Snapshot()
		return err
	}); err != nil {
		return nil, err
	}
	ph.snapshotKB = append(ph.snapshotKB, float64(len(blob))/1024)
	ph.blobs[key] = blob
	return blob, nil
}

// span times f and records its duration in ms.
func (ph *phases) span(into *[]float64, f func() error) error {
	t0 := time.Now()
	err := f()
	*into = append(*into, ms(time.Since(t0)))
	return err
}

// report sets the phase metrics: mean milliseconds per call, and the
// measure phase's host cost per simulated cycle and instruction.
func (ph *phases) report(rep *report) {
	mean := func(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
	rep.set("smtfetch.new_ms", mean(ph.newMS))
	rep.set("smtfetch.warm_ms", mean(ph.warmMS))
	rep.set("smtfetch.measure_ms", mean(ph.measureMS))
	rep.set("core.snapshot_ms", mean(ph.snapshotMS))
	rep.set("core.snapshot_kb", mean(ph.snapshotKB))
	rep.set("core.restore_ms", mean(ph.restoreMS))
	rep.set("core.set_policy_ms", mean(ph.setPolicyMS))
	rep.set("core.ns_per_cycle", ratio(float64(ph.measureNS), float64(ph.measureCycles)))
	rep.set("core.ns_per_instr", ratio(float64(ph.measureNS), float64(ph.measureInstrs)))
	rep.set("core.allocs_per_kcycle", 1000*ratio(float64(ph.mallocs), float64(ph.measureCycles)))
}

// sampledIPCError is the mean relative error, in percent, of each
// successful sampled cell's IPC against a full-detail measurement of the
// same span (every detail interval and skip gap) from the same warm
// checkpoint. Cells run on the benchmark's worker count.
func sampledIPCError(g *grid, results []experiment.Result, blobs map[string][]byte) (float64, int, error) {
	sw := g.sweep()
	sample, err := smtfetch.ParseSample(sw.Sample)
	if err != nil {
		return 0, 0, err
	}
	byKey := map[string]experiment.Result{}
	for _, r := range results {
		byKey[r.Key()] = r
	}
	var cells []experiment.Cell
	for _, c := range g.cells {
		if byKey[c.Key()].Error == "" {
			cells = append(cells, c)
		}
	}
	full := make([]float64, len(cells))
	fails := make([]error, len(cells))
	forEach(len(cells), func(i int) {
		c := cells[i]
		full[i], fails[i] = fullDetailIPC(sw, c, sample, byKey[c.Key()].SampleIntervals, blobs[sw.WarmKey(c)])
		if fails[i] != nil {
			fails[i] = fmt.Errorf("full-detail reference for %s: %w", c.Key(), fails[i])
		}
	})
	if err := errors.Join(fails...); err != nil {
		return 0, 0, err
	}
	var errs []float64
	for i, c := range cells {
		if full[i] > 0 {
			errs = append(errs, math.Abs(byKey[c.Key()].IPC-full[i])/full[i])
		}
	}
	return 100 * ratio(sum(errs), float64(len(errs))), len(errs), nil
}

// fullDetailIPC measures a forked cell in full detail over the span a
// sampled measurement of intervals intervals covers.
func fullDetailIPC(sw *experiment.Sweep, c experiment.Cell, sample smtfetch.SampleSpec, intervals int, blob []byte) (float64, error) {
	if blob == nil {
		return 0, fmt.Errorf("no warm checkpoint")
	}
	opts := options(sw, c, smtfetch.SampleSpec{})
	opts.MeasureInstrs = uint64(intervals)*sample.DetailInstrs + uint64(intervals-1)*sample.SkipInstrs
	sim, err := smtfetch.New(opts)
	if err != nil {
		return 0, err
	}
	if err := sim.Core().Restore(blob); err != nil {
		return 0, err
	}
	if err := sim.Core().SetPolicy(c.Policy); err != nil {
		return 0, err
	}
	res, err := sim.Measure()
	if err != nil {
		return 0, err
	}
	return res.IPC, nil
}

// setSimStats sets the simulated-counter metrics over a pass's
// successful cells. They are exact: a perf-only change leaves them
// identical.
func setSimStats(rep *report, results []experiment.Result) {
	var ipc, blockLen, icache, dcache, l2 []float64
	var fetched, fetchCycles, squashed, condBr, condMiss, stalls, cycles uint64
	for _, r := range results {
		st := r.Stats
		if st == nil {
			continue
		}
		ipc = append(ipc, r.IPC)
		blockLen = append(blockLen, st.AvgFetchBlockLen)
		icache = append(icache, st.ICacheMissRate)
		dcache = append(dcache, st.DCacheMissRate)
		l2 = append(l2, st.L2MissRate)
		fetched += st.Fetched
		fetchCycles += st.FetchCycles
		squashed += st.Squashed
		condBr += st.CondBranches
		condMiss += st.CondMispredicts
		stalls += st.StallROBFull + st.StallIQFull + st.StallRegsFull
		cycles += st.Cycles
	}
	mean := func(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
	rep.set("stats.ipc_mean", mean(ipc))
	rep.set("fetch.ipfc", ratio(float64(fetched), float64(fetchCycles)))
	rep.set("fetch.block_len", mean(blockLen))
	rep.set("fetch.wrong_path_ratio", ratio(float64(squashed), float64(fetched)))
	rep.set("bpred.cond_mispredict_ratio", ratio(float64(condMiss), float64(condBr)))
	rep.set("cache.icache_miss_ratio", mean(icache))
	rep.set("cache.dcache_miss_ratio", mean(dcache))
	rep.set("cache.l2_miss_ratio", mean(l2))
	rep.set("pipeline.rename_stall_ratio", ratio(float64(stalls), float64(cycles)))
}
