package cluster_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"smtfetch/internal/cluster"
	"smtfetch/internal/cluster/clustertest"
	"smtfetch/internal/server"
)

// paperGrid is the acceptance grid: all 7 fetch policies × 2 workloads,
// 14 cells, short phases.
func paperGrid() server.SweepRequest {
	return server.SweepRequest{
		Workloads: []string{"2_MEM", "2_MIX"},
		Engines:   []string{"stream"},
		Policies: []string{
			"ICOUNT.1.8", "RR.1.8", "BRCOUNT.1.8", "MISSCOUNT.1.8",
			"IQPOSN.1.8", "STALL.1.8", "FLUSH.1.8",
		},
		Seeds:         []uint64{1},
		WarmupInstrs:  2_000,
		MeasureInstrs: 5_000,
	}
}

// TestClusterByteIdenticalToLocal is the tentpole oracle on a healthy
// fleet: the coordinator's merged document over 3 workers is
// byte-identical to a local `smtfetch sweep`, and the fleet simulated
// each of the 14 cells exactly once (summed worker cache misses).
func TestClusterByteIdenticalToLocal(t *testing.T) {
	c := clustertest.Start(t, 3, clustertest.Options{})
	got := c.MustSweep(t, paperGrid())
	want := clustertest.LocalRun(t, paperGrid())
	clustertest.AssertIdentical(t, got, want, "healthy 3-worker fleet")
	if n := c.TotalMisses(); n != 14 {
		t.Fatalf("fleet simulated %d cells, want exactly 14", n)
	}
	// The shard was real: no single worker ran the whole grid.
	for i, w := range c.Workers {
		if m := w.CacheStats().Misses; m == 14 {
			t.Fatalf("worker %d simulated all 14 cells — no sharding happened", i)
		}
	}
}

// TestClusterAsyncJobByteIdentical drives the coordinator's job path
// (202 + GET /jobs/{id} polling, same protocol as a worker): forced-async
// grids merge to the same bytes as local.
func TestClusterAsyncJobByteIdentical(t *testing.T) {
	c := clustertest.Start(t, 2, clustertest.Options{
		Cluster: cluster.Config{SyncCellLimit: -1},
	})
	got := c.MustSweep(t, paperGrid())
	want := clustertest.LocalRun(t, paperGrid())
	clustertest.AssertIdentical(t, got, want, "async job path")
	if n := c.TotalMisses(); n != 14 {
		t.Fatalf("fleet simulated %d cells, want 14", n)
	}
}

// TestClusterRedispatchAfterKill kills the first worker to receive a
// dispatch — before the request reaches it — and requires the merged
// document to stay byte-identical, with every cell still simulated
// exactly once (the killed request never reached a simulator, and its
// cell was re-dispatched in rendezvous order to a survivor).
func TestClusterRedispatchAfterKill(t *testing.T) {
	c := clustertest.Start(t, 3, clustertest.Options{})
	c.Transport.Script(&clustertest.Rule{Path: "/sweep", Ordinal: 1, Fault: clustertest.FaultKill})

	got := c.MustSweep(t, paperGrid())
	want := clustertest.LocalRun(t, paperGrid())
	clustertest.AssertIdentical(t, got, want, "worker killed on first dispatch")
	if n := c.TotalMisses(); n != 14 {
		t.Fatalf("fleet simulated %d cells, want 14 (kill was pre-forward)\nlog:\n%s", n, strings.Join(c.Transport.Log(), "\n"))
	}

	// The coordinator noticed: exactly one worker is marked dead with a
	// recorded failure.
	dead := 0
	for _, ws := range c.Coordinator.ClusterStats().Workers {
		if !ws.Alive {
			dead++
			if ws.Failures == 0 || ws.LastError == "" {
				t.Fatalf("dead worker has no recorded failure: %+v", ws)
			}
		}
	}
	if dead != 1 {
		t.Fatalf("%d workers marked dead, want 1\nstats: %+v", dead, c.Coordinator.ClusterStats())
	}
}

// TestClusterRedispatchAcrossFaultKinds throws one transient connection
// reset, one injected 500, and one synthetic timeout at the first three
// dispatches: every fault path must end in a clean re-dispatch and a
// byte-identical merged document, still with no double simulation.
func TestClusterRedispatchAcrossFaultKinds(t *testing.T) {
	c := clustertest.Start(t, 3, clustertest.Options{})
	// Each fault targets a DIFFERENT cell (matched by the policy name in
	// the dispatch body), so every faulted cell has two clean workers
	// left and must recover — three faults racing onto one cell's three
	// successive retries would exhaust its whole rank order.
	c.Transport.Script(
		&clustertest.Rule{Path: "/sweep", BodyContains: "BRCOUNT", Ordinal: 1, Fault: clustertest.FaultReset},
		&clustertest.Rule{Path: "/sweep", BodyContains: "IQPOSN", Ordinal: 1, Fault: clustertest.Fault5xx},
		&clustertest.Rule{Path: "/sweep", BodyContains: "FLUSH", Ordinal: 1, Fault: clustertest.FaultHang},
	)
	got := c.MustSweep(t, paperGrid())
	want := clustertest.LocalRun(t, paperGrid())
	clustertest.AssertIdentical(t, got, want, "reset+5xx+timeout faults")
	if n := c.TotalMisses(); n != 14 {
		t.Fatalf("fleet simulated %d cells, want 14\nlog:\n%s", n, strings.Join(c.Transport.Log(), "\n"))
	}
}

// TestClusterProbeRevivesWorker: a killed worker is demoted, then — after
// Revive — a probe round restores it to the ring.
func TestClusterProbeRevivesWorker(t *testing.T) {
	c := clustertest.Start(t, 2, clustertest.Options{})
	c.Kill(0)
	c.Coordinator.ProbeAll()
	st := c.Coordinator.ClusterStats()
	if st.Workers[0].Alive {
		t.Fatalf("killed worker still alive after probe: %+v", st.Workers[0])
	}
	if !st.Workers[1].Alive {
		t.Fatalf("healthy worker demoted: %+v", st.Workers[1])
	}

	c.Revive(0)
	c.Coordinator.ProbeAll()
	st = c.Coordinator.ClusterStats()
	if !st.Workers[0].Alive {
		t.Fatalf("revived worker not re-admitted: %+v", st.Workers[0])
	}
}

// TestClusterSchemaMismatchKeptOut: a reachable worker speaking the wrong
// result schema is demoted by the identity probe and never dispatched to.
func TestClusterSchemaMismatchKeptOut(t *testing.T) {
	c := clustertest.Start(t, 1, clustertest.Options{})

	var sweeps int
	var mu sync.Mutex
	impostor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/identz":
			json.NewEncoder(w).Encode(server.Identity{Service: server.ServiceName, ResultSchema: 999})
		case "/healthz":
			w.WriteHeader(http.StatusOK)
		default:
			mu.Lock()
			sweeps++
			mu.Unlock()
			http.Error(w, "impostor", http.StatusInternalServerError)
		}
	}))
	t.Cleanup(impostor.Close)

	co, err := cluster.New(cluster.Config{Workers: []string{c.Workers[0].URL, impostor.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Stop)
	co.ProbeAll()

	var impostorStatus cluster.WorkerStatus
	for _, ws := range co.ClusterStats().Workers {
		if ws.URL == impostor.URL {
			impostorStatus = ws
		}
	}
	if impostorStatus.Alive {
		t.Fatalf("schema-mismatched worker admitted: %+v", impostorStatus)
	}
	if !strings.Contains(impostorStatus.LastError, "schema") {
		t.Fatalf("demotion reason %q does not name the schema mismatch", impostorStatus.LastError)
	}

	front := httptest.NewServer(co)
	t.Cleanup(front.Close)
	cl := &server.Client{BaseURL: front.URL}
	got, err := cl.Sweep(paperGrid())
	if err != nil {
		t.Fatalf("sweep with impostor in fleet: %v", err)
	}
	clustertest.AssertIdentical(t, got, clustertest.LocalRun(t, paperGrid()), "impostor quarantined")
	mu.Lock()
	defer mu.Unlock()
	if sweeps != 0 {
		t.Fatalf("impostor received %d sweep dispatches, want 0", sweeps)
	}
}

// TestClusterConcurrentOverlappingGrids is the acceptance single-flight
// property: two overlapping grids posted concurrently simulate each
// DISTINCT cell exactly once across the whole fleet — the summed worker
// cache misses equal the distinct-key count no matter how the requests
// interleave (coordinator flight map, worker flight map, and worker
// caches each close a different race).
func TestClusterConcurrentOverlappingGrids(t *testing.T) {
	c := clustertest.Start(t, 3, clustertest.Options{})

	gridA := paperGrid() // 7 policies × 2 workloads = 14 cells
	gridB := paperGrid()
	gridB.Policies = gridB.Policies[3:] // 4 policies × 2 workloads, all shared with A
	gridB.Workloads = gridB.Workloads[:1]
	const distinct = 14 // union: gridB ⊂ gridA

	var wg sync.WaitGroup
	blobs := make([][]byte, 2)
	errs := make([]error, 2)
	for i, req := range []server.SweepRequest{gridA, gridB} {
		wg.Add(1)
		go func(i int, req server.SweepRequest) {
			defer wg.Done()
			blobs[i], errs[i] = c.Sweep(req)
		}(i, req)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent grid %d: %v", i, err)
		}
	}
	clustertest.AssertIdentical(t, blobs[0], clustertest.LocalRun(t, gridA), "concurrent grid A")
	clustertest.AssertIdentical(t, blobs[1], clustertest.LocalRun(t, gridB), "concurrent grid B")
	if n := c.TotalMisses(); n != distinct {
		t.Fatalf("fleet simulated %d cells for %d distinct keys\nlog:\n%s", n, distinct, strings.Join(c.Transport.Log(), "\n"))
	}
}

// TestClusterWarmForkAffinity: warm-fork sweeps route whole warm groups
// to single workers, so each group's checkpoint is built exactly once
// fleet-wide — summed snapshot stores equal the group count — and the
// merged document still matches a local fork run byte-for-byte.
func TestClusterWarmForkAffinity(t *testing.T) {
	req := server.SweepRequest{
		Workloads:     []string{"2_MEM", "2_MIX"},
		Engines:       []string{"stream"},
		Policies:      []string{"ICOUNT.1.8", "RR.1.8", "STALL.1.8"},
		Seeds:         []uint64{1},
		WarmupInstrs:  2_000,
		MeasureInstrs: 5_000,
		WarmFork:      "fork",
	}
	const groups = 2 // one warm group per workload: same engine, same .1.8 shape, same seed

	c := clustertest.Start(t, 3, clustertest.Options{})
	got := c.MustSweep(t, req)
	clustertest.AssertIdentical(t, got, clustertest.LocalRun(t, req), "warm-fork sweep")

	var stores uint64
	for _, w := range c.Workers {
		stores += w.CacheStats().SnapshotStores
	}
	if stores != groups {
		t.Fatalf("fleet built %d warm checkpoints, want %d (one per group)", stores, groups)
	}
}

// TestClusterEndpoints smoke-tests the coordinator's observability
// surface: /healthz answers ok and /cluster/stats lists every worker.
func TestClusterEndpoints(t *testing.T) {
	c := clustertest.Start(t, 2, clustertest.Options{})
	code, body, err := c.Get("/healthz")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, %v", code, err)
	}
	code, body, err = c.Get("/cluster/stats")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /cluster/stats = %d, %v", code, err)
	}
	var st cluster.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad /cluster/stats body: %v\n%s", err, body)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("/cluster/stats lists %d workers, want 2", len(st.Workers))
	}
	for _, ws := range st.Workers {
		if !ws.Alive {
			t.Fatalf("fresh worker not alive: %+v", ws)
		}
	}
}

// TestCoordinatorRejectsBadSweeps: the coordinator's POST /sweep front
// door answers like a worker's — 405 for other methods, 400 with the
// worker's messages for a malformed body, an unknown name or an invalid
// grid — and dispatches nothing.
func TestCoordinatorRejectsBadSweeps(t *testing.T) {
	co, err := cluster.New(cluster.Config{Workers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Stop)
	ts := httptest.NewServer(co)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /sweep = %s, want 405", resp.Status)
	}

	for _, tc := range []struct{ name, body, msg string }{
		{"malformed json", `{"workloads": [`, "bad sweep request"},
		{"empty body", ``, "bad sweep request"},
		{"unknown engine", `{"engines": ["quantum"]}`, "bad sweep request"},
		{"unknown workload", `{"workloads": ["9_NOPE"]}`, "invalid sweep"},
	} {
		resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body strings.Builder
		io.Copy(&body, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(body.String(), tc.msg) {
			t.Errorf("%s: %s %q, want 400 %q", tc.name, resp.Status, body.String(), tc.msg)
		}
	}
	for _, ws := range co.ClusterStats().Workers {
		if ws.Dispatched != 0 {
			t.Fatalf("a rejected sweep was dispatched: %+v", ws)
		}
	}
}
