package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"smtfetch/internal/cluster"
	"smtfetch/internal/experiment"
	"smtfetch/internal/server"
)

// Service mix: each of the closed-loop clients sends roundSlots requests
// per round, and every round starts with both clients at once. Slot 0 is
// the same fresh grid for both clients, so the two requests overlap in
// flight and the coordinator and worker single-flight them; three more
// slots per client are fresh misses, one of them forked from a warm
// checkpoint. The rest repeat grids of a fixed hot pool, which hit the
// cache after their first request.
const (
	clients      = 2
	roundSlots   = 20
	freshPerSlot = 3
	hotGrids     = 16
	// workerCache bounds each worker's result cache. The hot pool's
	// cells stay resident; fresh cells evict each other, so memory stops
	// growing after the first seconds instead of tracking request count.
	workerCache = 256
	// roundS is the nominal seconds of a round that sizes a run (see
	// batches).
	roundS = 0.185
)

var (
	serviceWorkloads = []string{"2_MIX", "4_MIX"}
	serviceEngines   = []string{"gshare+BTB", "gskew+FTB", "stream"}
	servicePolicies  = []string{"ICOUNT.2.8", "RR.2.8", "MISSCOUNT.2.8", "BRCOUNT.2.8"}
)

// serviceGen draws the request mix from the workload seed. The seed picks
// which workloads, engines, policies and replication seeds a grid names;
// grid sizes and the hit/miss/fork mix are fixed, so every seed asks the
// service for the same amount of work.
type serviceGen struct {
	rng   *rand.Rand
	seed  uint64
	hot   [][]byte
	fresh uint64
}

// hotShapes are the hot grids' workload × engine × policy counts: 1, 2, 4
// and 8 cells, each shape four times. Every fourth grid is warm-forked.
var hotShapes = [4][3]int{{1, 1, 1}, {1, 1, 2}, {1, 2, 2}, {2, 2, 2}}

func newServiceGen(seed uint64) *serviceGen {
	g := &serviceGen{rng: rand.New(rand.NewPCG(seed, 0x5e41ce)), seed: seed}
	for i := 0; i < hotGrids; i++ {
		sh := hotShapes[i%len(hotShapes)]
		req := g.grid(g.pick(serviceWorkloads, sh[0]), g.pick(serviceEngines, sh[1]), g.pick(servicePolicies, sh[2]))
		// Hot grids draw their replication seed from a small range, so
		// they share cells with each other.
		req.Seeds = []uint64{seed<<8 | g.rng.Uint64N(4)}
		if i%4 == 3 {
			req.WarmFork = experiment.WarmForkFork
		}
		g.hot = append(g.hot, mustJSON(req))
	}
	return g
}

// pick draws n distinct items of xs, in xs order.
func (g *serviceGen) pick(xs []string, n int) []string {
	idx := g.rng.Perm(len(xs))[:n]
	sort.Ints(idx)
	out := make([]string, n)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// grid is a short-celled sweep request: cells cost milliseconds, so the
// service layers, not the simulator, dominate.
func (g *serviceGen) grid(ws, es, ps []string) server.SweepRequest {
	return server.SweepRequest{Workloads: ws, Engines: es, Policies: ps, WarmupInstrs: 2_000, MeasureInstrs: 4_000}
}

// freshGrid is a two-cell grid no earlier request asked for: its
// replication seed is new, so every cell misses.
func (g *serviceGen) freshGrid(fork bool) []byte {
	g.fresh++
	req := g.grid(serviceWorkloads[:1], g.pick(serviceEngines, 1), g.pick(servicePolicies, 2))
	req.Seeds = []uint64{1<<40 | g.seed<<20 | g.fresh}
	if fork {
		req.WarmFork = experiment.WarmForkFork
	}
	return mustJSON(req)
}

// round draws the next round: one request body per client and slot.
func (g *serviceGen) round() [clients][roundSlots][]byte {
	var r [clients][roundSlots][]byte
	shared := g.freshGrid(false)
	for c := range r {
		r[c][0] = shared
		fresh := map[int]bool{}
		for _, s := range g.rng.Perm(roundSlots - 1)[:freshPerSlot] {
			fresh[s+1] = true
		}
		forked := false
		for s := 1; s < roundSlots; s++ {
			switch {
			case fresh[s]:
				r[c][s] = g.freshGrid(!forked)
				forked = true
			default:
				r[c][s] = g.hot[g.rng.IntN(len(g.hot))]
			}
		}
	}
	return r
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: %v", err))
	}
	return b
}

// spanLog collects durations from concurrent callers.
type spanLog struct {
	mu sync.Mutex
	ms []float64
}

func (l *spanLog) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, ms(d))
	l.mu.Unlock()
}

func (l *spanLog) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.ms...)
}

// timedTransport records each dispatch round trip, up to its response
// headers, in log.
type timedTransport struct {
	base http.RoundTripper
	log  *spanLog
}

func (t timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(r)
	t.log.add(time.Since(t0))
	return resp, err
}

// stack is the in-process service: two sweep workers and a coordinator,
// each behind its own loopback HTTP listener.
type stack struct {
	workers  []*server.Server
	coord    *cluster.Coordinator
	servers  []*http.Server
	serving  sync.WaitGroup
	url      string
	client   *http.Client
	internal *http.Transport
	// handlerMS and dispatchMS are filled only on a traced stack.
	handlerMS, dispatchMS *spanLog
}

// startStack starts the workers and the coordinator and waits until the
// coordinator answers its health probe. A traced stack wraps every
// worker handler and the coordinator's dispatch transport in timers.
func startStack(traced bool) (*stack, error) {
	s := &stack{
		internal: &http.Transport{MaxIdleConnsPerHost: 64},
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
	}
	var dispatch http.RoundTripper = s.internal
	if traced {
		s.handlerMS, s.dispatchMS = &spanLog{}, &spanLog{}
		dispatch = timedTransport{base: s.internal, log: s.dispatchMS}
	}
	var urls []string
	for i := 0; i < 2; i++ {
		w, err := server.New(server.Config{CacheSize: workerCache, Jobs: jobs})
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers = append(s.workers, w)
		var h http.Handler = w
		if traced {
			h = timedHandler(w, s.handlerMS)
		}
		u, err := s.serve(h)
		if err != nil {
			s.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	co, err := cluster.New(cluster.Config{Workers: urls, Jobs: jobs, HTTPClient: &http.Client{Transport: dispatch}})
	if err != nil {
		s.close()
		return nil, err
	}
	s.coord = co
	if s.url, err = s.serve(co); err != nil {
		s.close()
		return nil, err
	}
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("coordinator health probe: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("coordinator health probe: %s", resp.Status)
	}
	return s, nil
}

func timedHandler(h http.Handler, log *spanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		log.add(time.Since(t0))
	})
}

// serve starts h on a loopback listener and returns its base URL.
func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every listener and connection and waits for the servers.
func (s *stack) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	s.serving.Wait()
	if s.coord != nil {
		s.coord.WaitJobs()
	}
	for _, w := range s.workers {
		w.WaitJobs()
	}
	s.client.CloseIdleConnections()
	s.internal.CloseIdleConnections()
}

// served is what the clients saw: per-request latencies, round times,
// failures, and every response to every distinct request body, with the
// number of requests that received it. check compares each against the
// local sweep of its body.
type served struct {
	mu        sync.Mutex
	latMS     []float64
	roundS    []float64
	attempted int
	failed    int
	responses map[string]map[string]int // request body → response body → requests
}

// drive runs n closed-loop rounds against the stack.
func (st *stack) drive(gen *serviceGen, n int, out *served) {
	for r := 0; r < n; r++ {
		plan := gen.round()
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(bodies [roundSlots][]byte) {
				defer wg.Done()
				for _, b := range bodies {
					st.request(b, out)
				}
			}(plan[c])
		}
		wg.Wait()
		d := time.Since(t0)
		out.mu.Lock()
		out.roundS = append(out.roundS, d.Seconds())
		out.mu.Unlock()
	}
}

// request sends one sweep and records its latency and outcome.
func (st *stack) request(body []byte, out *served) {
	t0 := time.Now()
	resp, err := st.client.Post(st.url+"/sweep", "application/json", bytes.NewReader(body))
	var doc []byte
	if err == nil {
		doc, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = errors.New(resp.Status)
		}
	}
	out.record(body, time.Since(t0), doc, err)
}

// record notes one request: a request that got no response counts as
// failed here; a response is kept for check.
func (out *served) record(body []byte, d time.Duration, doc []byte, err error) {
	out.mu.Lock()
	defer out.mu.Unlock()
	out.attempted++
	out.latMS = append(out.latMS, ms(d))
	if err != nil {
		out.failed++
		return
	}
	docs := out.responses[string(body)]
	if docs == nil {
		docs = map[string]int{}
		out.responses[string(body)] = docs
	}
	docs[string(doc)]++
}

// reference is a local sweep of one distinct request body; cellKeys[i]
// is the cache key of results[i].
type reference struct {
	doc      []byte
	results  []experiment.Result
	sw       *experiment.Sweep
	cellKeys []string
}

// references runs every distinct request body as a local Sweep.Run on the
// benchmark's worker count, outside the timed window.
func references(bodies []string) (map[string]*reference, error) {
	list := make([]*reference, len(bodies))
	errs := make([]error, len(bodies))
	forEach(len(bodies), func(i int) {
		list[i], errs[i] = localSweep([]byte(bodies[i]))
	})
	refs := make(map[string]*reference, len(bodies))
	for i, b := range bodies {
		refs[b] = list[i]
	}
	return refs, errors.Join(errs...)
}

func localSweep(body []byte) (*reference, error) {
	var req server.SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	sw, err := req.Sweep()
	if err != nil {
		return nil, err
	}
	sw.Jobs = 1
	cells, err := sw.Prepare()
	if err != nil {
		return nil, err
	}
	results, _ := sw.RunCells(cells, nil) // failed cells are in their results
	doc, err := experiment.MarshalJSONResults(results)
	if err != nil {
		return nil, err
	}
	fp := server.Fingerprint(sw)
	ref := &reference{doc: doc, results: results, sw: sw}
	for _, r := range results {
		ref.cellKeys = append(ref.cellKeys, server.CacheKey(fp, r.Cell()))
	}
	return ref, nil
}

// check compares every response with the local reference of its request
// body. Each request whose response differs counts as failed, once, and
// a body with any such response is mismatched: a cache hit that returns
// other bytes than the miss did fails here as a wrong miss does. It also
// returns the detailed instructions the distinct cells simulated.
func (out *served) check(refs map[string]*reference) (mismatched int, instrs uint64) {
	cells := map[string]bool{}
	warms := map[string]bool{}
	for body, docs := range out.responses {
		ref := refs[body]
		bad := 0
		for doc, n := range docs {
			if doc != string(ref.doc) {
				bad += n
			}
		}
		if bad > 0 {
			mismatched++
			out.failed += bad
		}
		for i, r := range ref.results {
			if cells[ref.cellKeys[i]] || r.Stats == nil {
				continue
			}
			cells[ref.cellKeys[i]] = true
			instrs += r.Stats.Committed
			if ref.sw.WarmFork == experiment.WarmForkOff {
				instrs += ref.sw.WarmupInstrs
			} else if k := ref.sw.WarmKey(r.Cell()); !warms[k] {
				warms[k] = true
				instrs += ref.sw.WarmupInstrs
			}
		}
	}
	return mismatched, instrs
}

// addServed checks out against refs and adds its requests to rep. A
// mismatching response makes the run incorrect. It returns the detailed
// instructions the distinct cells simulated.
func (rep *report) addServed(out *served, refs map[string]*reference) uint64 {
	mismatched, instrs := out.check(refs)
	rep.attempted += out.attempted
	rep.failed += out.failed
	if mismatched > 0 {
		rep.correct = false
		rep.notef("%d distinct grids answered differently from a local Sweep.Run", mismatched)
	}
	return instrs
}

// runService runs the service workload: set-up, then closed-loop rounds;
// with trace, an untraced half and a half on a stack with timed worker
// handlers and dispatch transport. Every distinct response is then
// checked against a local sweep.
func runService(cfg runConfig) (*report, error) {
	rep := newReport()
	var st *stack
	var gen *serviceGen
	setup, err := setupTime(func() (time.Duration, error) {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		gen = newServiceGen(cfg.seed)
		var err error
		st, err = startStack(false)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	rounds := batches(seconds, roundS, (samplesFor(0.99)+clients*roundSlots-1)/(clients*roundSlots))
	plain := newServed()
	st.drive(gen, rounds, plain)
	st.close()

	var traced *served
	var tst *stack
	if cfg.trace {
		if tst, err = startStack(true); err != nil {
			return nil, err
		}
		traced = newServed()
		tst.drive(newServiceGen(cfg.seed), rounds, traced)
		tst.close()
	}

	bodies := map[string]bool{}
	for _, b := range gen.hot {
		bodies[string(b)] = true
	}
	for _, o := range []*served{plain, traced} {
		if o != nil {
			for b := range o.responses {
				bodies[b] = true
			}
		}
	}
	list := make([]string, 0, len(bodies))
	for b := range bodies {
		list = append(list, b)
	}
	sort.Strings(list)
	refs, err := references(list)
	if err != nil {
		return nil, fmt.Errorf("local reference sweep: %w", err)
	}
	instrs := rep.addServed(plain, refs)
	if traced != nil {
		rep.addServed(traced, refs)
	}
	var hotDocs []byte
	for _, b := range gen.hot {
		hotDocs = append(hotDocs, refs[string(b)].doc...)
	}
	rep.notef("digest %s (hot pool of %d grids; %d distinct grids checked against local sweeps)", digest(hotDocs), len(gen.hot), len(list))

	if traced != nil {
		setServiceLayers(rep, tst, traced, refs)
		rep.set("trace.overhead_pct", 100*ratio(percentile(traced.latMS, 0.5)-percentile(plain.latMS, 0.5), percentile(plain.latMS, 0.5)))
		return rep, nil
	}
	// Rates are a mean round's work over the median round, as robust
	// as grid_s.
	gridS := median(plain.roundS)
	rep.set("setup_s", setup)
	rep.set("grid_s", gridS)
	rep.set("op_ms_p50", percentile(plain.latMS, 0.5))
	rep.set("op_ms_p90", percentile(plain.latMS, 0.9))
	rep.set("ops_per_s", ratio(float64(clients*roundSlots), gridS))
	rep.set("minstr_per_s", ratio(float64(instrs)/1e6/float64(rounds), gridS))
	n := len(plain.latMS)
	rep.notef("ops: %d requests in %d rounds of %d; req_ms_p99 %.4f ms with %d requests beyond it", n, len(plain.roundS), clients*roundSlots, percentile(plain.latMS, 0.99), beyond(n, 0.99))
	return rep, nil
}

func newServed() *served {
	return &served{responses: map[string]map[string]int{}}
}

// setServiceLayers sets the server and cluster metrics of a traced stack.
func setServiceLayers(rep *report, st *stack, out *served, refs map[string]*reference) {
	var cs server.CacheStats
	for _, w := range st.workers {
		s := w.CacheStats()
		cs.Hits += s.Hits
		cs.Misses += s.Misses
		cs.Stores += s.Stores
		cs.SnapshotHits += s.SnapshotHits
		cs.SnapshotMisses += s.SnapshotMisses
	}
	keys := map[string]bool{}
	for body := range out.responses {
		ref := refs[body]
		for i, r := range ref.results {
			if r.Error == "" {
				keys[ref.cellKeys[i]] = true
			}
		}
	}
	var dispatched, failures uint64
	for _, w := range st.coord.ClusterStats().Workers {
		dispatched += w.Dispatched
		failures += w.Failures
	}
	handler := st.handlerMS.values()
	rep.set("server.handler_ms_p50", percentile(handler, 0.5))
	rep.set("server.handler_ms_p99", percentile(handler, 0.99))
	rep.set("server.hit_ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)))
	rep.set("server.snapshot_hit_ratio", ratio(float64(cs.SnapshotHits), float64(cs.SnapshotHits+cs.SnapshotMisses)))
	rep.set("server.sims_per_distinct_key", ratio(float64(cs.Stores), float64(len(keys))))
	rep.set("cluster.dispatch_ms_p50", percentile(st.dispatchMS.values(), 0.5))
	rep.set("cluster.dispatches_per_req", ratio(float64(dispatched), float64(out.attempted)))
	rep.set("cluster.redispatches", float64(failures))
	rep.notef("server: %d handler calls, %d result hits / %d misses / %d stores, %d snapshot hits / %d misses; %d distinct cells", len(handler), cs.Hits, cs.Misses, cs.Stores, cs.SnapshotHits, cs.SnapshotMisses, len(keys))
}
