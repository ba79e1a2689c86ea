package main

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"time"

	"fuse/internal/config"
	"fuse/internal/engine"
	"fuse/internal/experiments"
	"fuse/internal/sim"
	"fuse/internal/stats"
	"fuse/internal/store"
)

// tinyJob is a one-SM simulation small enough for a unit test.
func tinyJob(kind config.L1DKind, workload string) engine.Job {
	return engine.Job{Kind: kind, Workload: workload, Opts: sim.Options{InstructionsPerWarp: 40, SMOverride: 1, Seed: 7}}
}

func runTiny(t *testing.T, job engine.Job) sim.Result {
	t.Helper()
	res, err := engine.Execute(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCheckResultRejectsEachDoctoredIdentity(t *testing.T) {
	for _, kind := range []config.L1DKind{config.L1SRAM, config.DyFUSE} {
		job := tinyJob(kind, "PVC")
		good := runTiny(t, job)
		if err := checkResult(job, good); err != nil {
			t.Fatalf("%s: genuine result rejected: %v", kind, err)
		}
		doctors := map[string]func(*sim.Result){
			"instructions":     func(r *sim.Result) { r.Instructions++ },
			"ipc":              func(r *sim.Result) { r.IPC *= 1.01 },
			"reads+writes":     func(r *sim.Result) { r.L1D.Reads++ },
			"hits+misses":      func(r *sim.Result) { r.L1D.Misses++ },
			"hit kinds":        func(r *sim.Result) { r.L1D.SRAMHits++ },
			"outgoing":         func(r *sim.Result) { r.L1D.OutgoingRequests++ },
			"l2 over noc":      func(r *sim.Result) { r.L2Accesses = r.NoCRequests + 1 },
			"l2 lost":          func(r *sim.Result) { r.L2Accesses = 0 },
			"l2 gap over 3/sm": func(r *sim.Result) { r.L2Accesses = r.NoCRequests - 3*uint64(r.SimulatedSMs) - 1 },
			"predictor":        func(r *sim.Result) { r.PredTrue += 0.25 },
			"offchip split":    func(r *sim.Result) { r.NetworkFraction += 0.01 },
			"simulated sms":    func(r *sim.Result) { r.SimulatedSMs++ },
			"non-positive":     func(r *sim.Result) { r.Cycles = 0 },
			"dyfuse no pred":   func(r *sim.Result) { r.PredTrue, r.PredNeutral, r.PredFalse = 0, 0, 0 },
		}
		for name, doctor := range doctors {
			if name == "dyfuse no pred" && kind != config.DyFUSE {
				continue
			}
			bad := good
			doctor(&bad)
			if err := checkResult(job, bad); err == nil {
				t.Errorf("%s: doctored %s passed", kind, name)
			}
		}
	}
}

func TestCheckResultAllowsThreeInFlightRequestsPerSM(t *testing.T) {
	job := tinyJob(config.DyFUSE, "PVC")
	res := runTiny(t, job)
	res.L2Accesses = res.NoCRequests - 3*uint64(res.SimulatedSMs)
	if err := checkResult(job, res); err != nil {
		t.Fatalf("a gap of three requests per SM was rejected: %v", err)
	}
}

func TestCutOff(t *testing.T) {
	job := tinyJob(config.DyFUSE, "ATAX")
	res := runTiny(t, job)
	if cutOff(job, res) {
		t.Fatal("a finished run reads as cut off")
	}
	res.Cycles = job.Opts.WithDefaults().MaxCycles
	if !cutOff(job, res) {
		t.Fatal("a run at MaxCycles does not read as cut off")
	}
}

func TestCheckReferenceRejectsDoctoredResult(t *testing.T) {
	job := tinyJob(config.DyFUSE, "ATAX")
	good := runTiny(t, job)
	if err := checkReference(job, good); err != nil {
		t.Fatalf("sparse result rejected: %v", err)
	}
	bad := good
	bad.L1D.Bypasses++
	if err := checkReference(job, bad); err == nil {
		t.Fatal("doctored result matched the reference engine")
	}
}

func TestCheckCell(t *testing.T) {
	tab := stats.NewTable("t", "workload", "Dy-FUSE")
	tab.AddRowValues("ATAX", 1.5)
	tab.AddRowValues("GMEAN", 1.2344)
	if err := checkCell(tab, "GMEAN", "Dy-FUSE", 1.2344); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ row, col string }{{"GMEAN", "By-NVM"}, {"MEAN", "Dy-FUSE"}} {
		if err := checkCell(tab, c.row, c.col, 1.2344); err == nil {
			t.Errorf("missing %s/%s passed", c.row, c.col)
		}
	}
	if err := checkCell(tab, "GMEAN", "Dy-FUSE", 1.2364); err == nil {
		t.Error("a cell 0.002 off its recomputed value passed")
	}
}

func TestCheckTablesRejectsDoctoredCell(t *testing.T) {
	scale := experiments.Scale{InstructionsPerWarp: 40, SMs: 1, Seed: 7}
	rec := &recorder{}
	m := experiments.NewMatrixRunner(scale, engine.New(engine.Config{Exec: rec.exec}))
	tables := map[string]*stats.Table{}
	for _, name := range []string{experiments.ExpFig1, experiments.ExpFig13, experiments.ExpFig14, experiments.ExpFig16, experiments.ExpFig17} {
		tab, err := experiments.RunContext(context.Background(), m, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		tables[name] = tab
	}
	if err := checkTables(tables, rec.execs, scale); err != nil {
		t.Fatalf("genuine tables rejected: %v", err)
	}
	fig13 := tables[experiments.ExpFig13]
	row := fig13.Rows[len(fig13.Rows)-1]
	v, err := strconv.ParseFloat(row[len(row)-1], 64)
	if err != nil {
		t.Fatal(err)
	}
	row[len(row)-1] = stats.FormatFloat(v + 0.002)
	if err := checkTables(tables, rec.execs, scale); err == nil {
		t.Fatal("a GMEAN cell 0.002 off passed")
	}
	delete(tables, experiments.ExpFig17)
	if err := checkTables(tables, rec.execs, scale); err == nil {
		t.Fatal("a missing table passed")
	}
}

func TestCheckClaims(t *testing.T) {
	// ATAX-like and PVC-like pairs: PVC alone sends more requests, the
	// geometric mean still fewer.
	good := pairRatios{ipc: []float64{1.2, 1.5}, outgoing: []float64{0.68, 1.23}}
	if err := checkClaims(good); err != nil {
		t.Fatal(err)
	}
	if err := checkClaims(pairRatios{ipc: []float64{1.2, 1.5}, outgoing: []float64{1.1, 1.0}}); err == nil {
		t.Error("outgoing ratio above 1 passed")
	}
	if err := checkClaims(pairRatios{ipc: []float64{0.9, 1.05}, outgoing: []float64{0.68, 0.9}}); err == nil {
		t.Error("speedup below 1 passed")
	}
}

func TestDyfuseRatiosNeedEveryPair(t *testing.T) {
	base := map[string]sim.Result{"ATAX": runTiny(t, tinyJob(config.L1SRAM, "ATAX"))}
	dy := map[string]sim.Result{"ATAX": runTiny(t, tinyJob(config.DyFUSE, "ATAX"))}
	if _, err := dyfuseRatios([]string{"ATAX"}, base, dy); err != nil {
		t.Fatal(err)
	}
	if _, err := dyfuseRatios([]string{"ATAX", "PVC"}, base, dy); err == nil {
		t.Fatal("a workload without results passed")
	}
}

func goodHealth() healthz {
	var h healthz
	if err := json.Unmarshal([]byte(`{"status":"ok","executed":46,"storeHits":0,"retried":0,"panics":0,
		"handlerPanics":0,"store":[{"tier":"memory","evictions":7},{"tier":"disk"}],
		"cluster":{"workers":1,"dispatched":46}}`), &h); err != nil {
		panic(err)
	}
	return h
}

func TestCheckHealthRejectsEachDoctoredCounter(t *testing.T) {
	if err := checkHealth(goodHealth(), 46, 7); err != nil {
		t.Fatal(err)
	}
	if err := checkHealth(goodHealth(), 47, 7); err == nil {
		t.Error("executed count off by one passed")
	}
	if err := checkHealth(goodHealth(), 46, 8); err == nil {
		t.Error("eviction count off the model passed")
	}
	doctors := map[string]func(*healthz){
		"status":         func(h *healthz) { h.Status = "degraded" },
		"retried":        func(h *healthz) { h.Retried = 1 },
		"handler panics": func(h *healthz) { h.HandlerPanics = 1 },
		"quarantine":     func(h *healthz) { h.Store[1].Quarantined = 1 },
		"redispatch":     func(h *healthz) { h.Cluster.Redispatched = 1 },
		"cluster failed": func(h *healthz) { h.Cluster.Failed = 1 },
		"no cluster":     func(h *healthz) { h.Cluster = nil },
	}
	for name, doctor := range doctors {
		h := goodHealth()
		doctor(&h)
		if err := checkHealth(h, 46, 7); err == nil {
			t.Errorf("doctored %s passed", name)
		}
	}
}

// TestLRUModelMatchesMemoryTier drives the benchmark's model and the real
// memory tier with the same seeded operations: the model must predict every
// hit and the eviction count, and a model of the wrong size must not.
func TestLRUModelMatchesMemoryTier(t *testing.T) {
	run := func(modelCap int) (mismatches int, modelEvictions, tierEvictions int64) {
		tier := store.NewMemoryLRU(5)
		model := newLRUModel(modelCap)
		rng := rand.New(rand.NewPCG(1, 2))
		for i := 0; i < 2000; i++ {
			key := strings.Repeat("k", 1+rng.IntN(9))
			if rng.IntN(2) == 0 {
				tier.Put(key, sim.Result{})
				model.put(key)
				continue
			}
			_, hit := tier.Get(key)
			if model.get(key) != hit {
				mismatches++
			}
			if !hit { // the tiered store backfills a lower tier's hit
				tier.Put(key, sim.Result{})
				model.put(key)
			}
		}
		return mismatches, model.evictions, tier.Health().Evictions
	}
	if n, me, te := run(5); n != 0 || me != te {
		t.Fatalf("model of the right size: %d mismatches, %d vs %d evictions", n, me, te)
	}
	if n, me, te := run(6); n == 0 && me == te {
		t.Fatal("a model of the wrong size agreed with the tier")
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := span{"run", at(0), at(100)}
	spans := []span{
		{"engine.batch", at(0), at(80)},
		{"sim.exec", at(10), at(50)},
		{"store.get", at(20), at(25)}, // another goroutine, inside the exec
		{"store.put", at(50), at(52)},
		{"experiments.render", at(85), at(100)},
	}
	self := selfTimes(root, spans)
	want := map[string]float64{"run": 0.005, "engine.batch": 0.038, "sim.exec": 0.035, "store.get": 0.005, "store.put": 0.002, "experiments.render": 0.015}
	for name, w := range want {
		if !closeTo(self[name], w) && (self[name]-w > 1e-9 || w-self[name] > 1e-9) {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
	if cover, err := checkSpans(root, spans, self); err != nil || !closeTo(cover, 0.95) {
		t.Fatalf("cover %v, %v", cover, err)
	}
	delete(self, "store.put")
	if _, err := checkSpans(root, spans, self); err == nil {
		t.Error("self times missing 2ms passed")
	}
	outside := append(spans, span{"sim.exec", at(90), at(120)})
	if _, err := checkSpans(root, outside, selfTimes(root, outside)); err == nil {
		t.Error("a span past the root's end passed")
	}
	// A layer call left outside any span: 15ms of the root's 100ms.
	gap := append([]span(nil), spans[:4]...)
	if _, err := checkSpans(root, gap, selfTimes(root, gap)); err == nil {
		t.Error("spans covering 0.80 of the pass passed")
	}
}

const pprofTop = `File: perfbench
Type: cpu
Duration: 2.51s, Total samples = 2450ms (97.61%)
Showing nodes accounting for 2450ms, 100% of 2450ms total
      flat  flat%   sum%        cum   cum%
    1000ms 40.82% 40.82%     1200ms 48.98%  fuse/internal/cache.(*TagStore).Lookup
     700ms 28.57% 69.39%      700ms 28.57%  fuse/internal/dram.(*DRAM).NextEventAt
     400ms 16.33% 85.71%      400ms 16.33%  runtime.mallocgc
     200ms  8.16% 93.88%      200ms  8.16%  encoding/json.(*decodeState).object
     150ms  6.12%   100%      150ms  6.12%  fuse/internal/cluster.(*Coordinator).Execute
         0     0%   100%     2450ms   100%  main.main
`

func TestParsePprofTopTotalsPerPackage(t *testing.T) {
	totals, total, err := parsePprofTop([]byte(pprofTop))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cache": 1.0, "dram": 0.7, "runtime": 0.4, "other": 0.35}
	for k, v := range want {
		if !closeTo(totals[k], v) {
			t.Errorf("%s = %v, want %v", k, totals[k], v)
		}
	}
	if !closeTo(total, 2.45) {
		t.Fatalf("total %v", total)
	}
	if err := checkPackageTotals(totals, total); err != nil {
		t.Fatal(err)
	}
	if err := checkPackageTotals(totals, total+0.1); err == nil {
		t.Error("totals 100ms short of the profile passed")
	}
}

func TestPackageBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"fuse/internal/cache.(*TagStore).Lookup":                              "cache",
		"fuse/internal/cache.(*TagStore).Touch (inline)":                      "cache",
		"fuse/internal/sim.grow[go.shape.struct { fuse/internal/gpu.x int }]": "sim",
		"fuse/internal/trace.(*gen).next":                                     "trace",
		"fuse/internal/config.FermiGPU":                                       "other",
		"runtime.mallocgc":                                                    "runtime",
		"internal/runtime/maps.(*Map).Get":                                    "runtime",
		"net/http.(*conn).serve":                                              "other",
		"main.main":                                                           "other",
	} {
		if got := packageBucket(fn); got != want {
			t.Errorf("%s: %s, want %s", fn, got, want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of three: %v %v", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median %v", m)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 50); p != 3 {
		t.Fatalf("p50 %v", p)
	}
}

func TestSameRawIgnoresLayoutOnly(t *testing.T) {
	a := json.RawMessage("{\n  \"Cycles\": 5,\n  \"IPC\": 1.5\n}")
	if err := sameRaw(a, json.RawMessage(`{"Cycles":5,"IPC":1.5}`)); err != nil {
		t.Fatal(err)
	}
	if err := sameRaw(a, json.RawMessage(`{"Cycles":6,"IPC":1.5}`)); err == nil {
		t.Fatal("different results compared equal")
	}
}

func TestAtReferenceSpeedScalesHostTimeOnly(t *testing.T) {
	m := metrics{}
	m.set("wall_s", 10, "s")
	m.set("read_p50_ms", 2, "ms")
	m.set("req_per_s", 100, "1/s")
	m.set("rss_mb", 20, "MB")
	m.set("dyfuse_ipc_speedup", 1.5, "x")
	atReferenceSpeed(m, 2) // the host ran at half the reference speed
	want := map[string]float64{"wall_s": 5, "read_p50_ms": 1, "req_per_s": 200, "rss_mb": 20, "dyfuse_ipc_speedup": 1.5}
	for name, v := range want {
		if m[name].Value != v {
			t.Errorf("%s = %v, want %v", name, m[name].Value, v)
		}
	}
}

func TestCalibratorOwesChunksForRunTimeOnly(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if d := c.tick(); d != 0 || c.chunks != 0 {
		t.Fatalf("a tick right after start ran %d chunks in %s", c.chunks, d)
	}
	c.last = c.last.Add(-5 * calibEvery / 2) // 2.5 periods of run time
	if c.tick(); c.chunks != 2 {
		t.Fatalf("2.5 periods owed %d chunks, want 2", c.chunks)
	}
	if c.tick(); c.chunks != 2 {
		t.Fatalf("the half period left over, or the burst's own time, owed a chunk: %d", c.chunks)
	}
	if s := c.slowdown(); s <= 0 {
		t.Fatalf("slowdown %v", s)
	}
}
