package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"fuse/internal/config"
	"fuse/internal/energy"
	"fuse/internal/engine"
	"fuse/internal/experiments"
	"fuse/internal/sim"
	"fuse/internal/stats"
	"fuse/internal/store"
	"fuse/internal/trace"
)

const (
	// setupReps is how many times a simulation workload sets up besides its
	// rounds' own set-ups, half before the first round and half after the
	// last, so that the median samples the whole run. setup_s is the median
	// over all of them. A set-up takes about a millisecond, so it takes many
	// to steady the median.
	setupReps = 101
	// readsPerRound is about how many warm reads a round's read probe
	// times: the p99 read latency then has 30 samples beyond it, so a few
	// slow reads (a GC cycle, a disk write-back) do not decide it alone.
	readsPerRound = 3100
)

// fullGPU is the sim-full scale: fusesim's defaults, the whole 15-SM Fermi
// GPU at 1000 instructions per warp.
var fullGPU = experiments.Scale{InstructionsPerWarp: 1000, SMs: 0, Seed: 42}

// execRecord is one simulation the engine ran through the benchmark's Exec
// hook.
type execRecord struct {
	job engine.Job
	res sim.Result
	err error
	dur time.Duration
}

// recorder is the benchmark's hook on the engine: it wraps engine.Execute
// and the store tiers, timing each call and, in the traced pass, recording
// a span around it.
type recorder struct {
	tr *tracer
	// probe, when set, reads stored results back after each Put.
	probe *readProbe

	mu     sync.Mutex
	execs  []execRecord
	gets   int
	hits   int
	getDur time.Duration
	putDur time.Duration
}

func (r *recorder) exec(ctx context.Context, job engine.Job) (sim.Result, error) {
	end := r.tr.begin("sim.exec")
	start := time.Now()
	res, err := engine.Execute(ctx, job)
	d := time.Since(start)
	end()
	r.mu.Lock()
	r.execs = append(r.execs, execRecord{job: job, res: res, err: err, dur: d})
	r.mu.Unlock()
	return res, err
}

// hookCache is the Cache hook: the tiered store behind timing and spans.
type hookCache struct {
	inner engine.Cache
	rec   *recorder
}

func (c *hookCache) Get(key string) (sim.Result, bool) {
	end := c.rec.tr.begin("store.get")
	start := time.Now()
	res, ok := c.inner.Get(key)
	d := time.Since(start)
	end()
	c.rec.mu.Lock()
	c.rec.gets++
	if ok {
		c.rec.hits++
	}
	c.rec.getDur += d
	c.rec.mu.Unlock()
	return res, ok
}

func (c *hookCache) Put(key string, res sim.Result) {
	end := c.rec.tr.begin("store.put")
	start := time.Now()
	c.inner.Put(key, res)
	d := time.Since(start)
	end()
	c.rec.mu.Lock()
	c.rec.putDur += d
	execs := c.rec.execs
	c.rec.mu.Unlock()
	if c.rec.probe != nil {
		c.rec.probe.read(execs)
	}
}

// simStack is one set-up of the in-process program: a fresh tiered store,
// an engine Runner with the benchmark's hooks, the experiment matrix over
// it, and the workload's declared jobs.
type simStack struct {
	dir    string
	mem    *store.Memory
	disk   *store.Disk
	rec    *recorder
	runner *engine.Runner
	matrix *experiments.Matrix
	jobs   []engine.Job
}

func (st *simStack) close() { os.RemoveAll(st.dir) }

// simSpec describes one simulation workload.
type simSpec struct {
	scale experiments.Scale
	// jobs declares the workload's simulations (duplicates allowed).
	jobs func(m *experiments.Matrix) []engine.Job
	// round runs the workload's fixed work once on a fresh stack.
	round func(ctx context.Context, st *simStack, tr *tracer) (map[string]*stats.Table, error)
	// workloads are the benchmarks the Dy-FUSE/L1-SRAM metrics pair up.
	workloads []string
	// referenceJobs picks the jobs re-run on the reference engine; a job
	// whose Opts differ from every round job is compared with a fresh
	// sparse run instead of the round's result.
	referenceJobs func(rng *rand.Rand, jobs []engine.Job) []engine.Job
}

// newSimStack performs the simulation workloads' set-up: open a fresh
// store, build the runner and matrix, declare the jobs (which builds every
// GPU configuration), resolve each workload through the registry, and build
// the first simulator.
func newSimStack(spec *simSpec, dir string, tr *tracer) (*simStack, error) {
	disk, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	rec := &recorder{tr: tr}
	mem := store.NewMemory()
	runner := engine.New(engine.Config{
		Exec:  rec.exec,
		Cache: &hookCache{inner: store.NewTiered(mem, disk), rec: rec},
	})
	st := &simStack{dir: dir, mem: mem, disk: disk, rec: rec, runner: runner,
		matrix: experiments.NewMatrixRunner(spec.scale, runner)}
	st.jobs = spec.jobs(st.matrix)
	if len(st.jobs) == 0 {
		return nil, errors.New("workload declares no jobs")
	}
	for _, job := range st.jobs {
		if _, err := trace.LookupWorkload(job.Workload); err != nil {
			return nil, err
		}
	}
	first := st.jobs[0]
	w, _ := trace.LookupWorkload(first.Workload)
	if _, err := sim.New(first.GPUConfig(), w, first.Opts); err != nil {
		return nil, err
	}
	return st, nil
}

var figuresAll = &simSpec{
	scale: experiments.BenchScale,
	jobs: func(m *experiments.Matrix) []engine.Job {
		var jobs []engine.Job
		for _, name := range experiments.AllExperiments() {
			jobs = append(jobs, m.Jobs(name, nil)...)
		}
		return jobs
	},
	round: func(ctx context.Context, st *simStack, tr *tracer) (map[string]*stats.Table, error) {
		names := experiments.AllExperiments()
		end := tr.begin("engine.batch")
		err := st.matrix.Prewarm(ctx, names, nil)
		end()
		if err != nil {
			return nil, err
		}
		tables := make(map[string]*stats.Table, len(names))
		for _, name := range names {
			end := tr.begin("experiments.render")
			t, err := experiments.RunContext(ctx, st.matrix, name, nil)
			end()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			tables[name] = t
		}
		return tables, nil
	},
	workloads: experiments.AllWorkloads(),
	referenceJobs: func(rng *rand.Rand, jobs []engine.Job) []engine.Job {
		var out []engine.Job
		for _, i := range rng.Perm(len(jobs))[:3] {
			out = append(out, jobs[i])
		}
		return out
	},
}

var simFull = &simSpec{
	scale: fullGPU,
	jobs: func(m *experiments.Matrix) []engine.Job {
		var jobs []engine.Job
		for _, w := range []string{"ATAX", "PVC"} {
			for _, k := range []config.L1DKind{config.L1SRAM, config.DyFUSE} {
				jobs = append(jobs, engine.Job{Kind: k, Workload: w, Opts: m.Scale().Options()})
			}
		}
		return jobs
	},
	round: func(ctx context.Context, st *simStack, tr *tracer) (map[string]*stats.Table, error) {
		end := tr.begin("engine.batch")
		_, err := st.runner.RunBatch(ctx, st.jobs)
		end()
		return nil, err
	},
	workloads: []string{"ATAX", "PVC"},
	// The reference engine steps every cycle of every SM, far too slowly
	// for a full-length full-GPU run: check one sampled configuration on
	// the whole GPU at 100 instructions per warp instead.
	referenceJobs: func(rng *rand.Rand, jobs []engine.Job) []engine.Job {
		job := jobs[rng.IntN(len(jobs))]
		job.Opts.InstructionsPerWarp = 100
		return []engine.Job{job}
	},
}

func runFiguresAll(e *env) (*outcome, error) { return runSim(e, figuresAll) }
func runSimFull(e *env) (*outcome, error)    { return runSim(e, simFull) }

// roundStats is what one timed round leaves behind.
type roundStats struct {
	wall          time.Duration
	tables        map[string]*stats.Table
	execs         []execRecord
	before, after runtimeMemStats
}

// runtimeMemStats is the subset of runtime.MemStats the benchmark reports.
type runtimeMemStats struct {
	numGC      uint32
	totalAlloc uint64
	mallocs    uint64
}

func memNow() runtimeMemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeMemStats{numGC: ms.NumGC, totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// processCPU is this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func runSim(e *env, spec *simSpec) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{endToEnd: metrics{}, perLayer: metrics{}}
	storeDir := func(i int) string { return filepath.Join(e.workDir, fmt.Sprintf("store-%03d", i)) }
	nStores := 0
	calib, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer calib.close()
	setup := func(tr *tracer) (*simStack, time.Duration, error) {
		dir := storeDir(nStores)
		nStores++
		start := time.Now()
		st, err := newSimStack(spec, dir, tr)
		d := time.Since(start)
		calib.tick()
		return st, d, err
	}

	// Set-up, repeated; every stack but the last is torn down untimed.
	var setups []float64
	var st *simStack
	for i := 0; i < setupReps/2+1; i++ {
		if st != nil {
			st.close()
		}
		var d time.Duration
		var err error
		if st, d, err = setup(nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	// Timed rounds: whole rounds until the run length has passed, each on a
	// fresh stack (a warm engine or store would simulate nothing). Each
	// round carries a read probe, whose time is left out of the round's.
	var rounds []roundStats
	var reads readStats
	readRNG := rand.New(rand.NewPCG(e.seed, 1))
	var elapsed time.Duration
	for len(rounds) == 0 || elapsed.Seconds() < e.seconds {
		if len(rounds) > 0 {
			st.close()
			var d time.Duration
			var err error
			if st, d, err = setup(nil); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		probe := newReadProbe(st, readRNG, calib)
		st.rec.probe = probe
		calib.tick()
		before := memNow()
		start := time.Now()
		tables, err := spec.round(ctx, st, nil)
		wall := time.Since(start) - probe.spent
		after := memNow()
		st.rec.probe = nil
		calib.tick()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(rounds)+1, err)
		}
		rounds = append(rounds, roundStats{wall: wall, tables: tables, execs: st.rec.execs,
			before: before, after: after})
		reads.add(probe)
		elapsed += wall
	}
	for i := setupReps/2 + 1; i < setupReps; i++ {
		extra, d, err := setup(nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		extra.close()
		setups = append(setups, d.Seconds())
	}

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	// End-to-end metrics.
	var walls []float64
	writeMS := make(map[engine.Key][]float64)
	var totalWall time.Duration
	var instr uint64
	var jobs int64
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
		totalWall += r.wall
		for _, x := range r.execs {
			writeMS[x.job.Key()] = append(writeMS[x.job.Key()], x.dur.Seconds()*1000)
			instr += x.res.Instructions
			jobs++
			out.attempted++
			if x.err != nil || cutOff(x.job, x.res) {
				out.failed++
			}
		}
	}
	out.attempted += int64(len(reads.disk))
	m := out.endToEnd
	m.set("setup_s", median(setups), "s")
	m.set("wall_s", median(walls), "s")
	m.set("sim_instr_per_s", float64(instr)/totalWall.Seconds(), "1/s")
	m.set("req_per_s", float64(jobs)/totalWall.Seconds(), "1/s")
	m.set("rss_mb", rss, "MB")
	m.set("read_p50_ms", percentile(reads.disk, 50), "ms")
	// A median over all simulations would sit between groups of jobs of
	// different cost (on sim-full, between the slowest PVC run and the
	// fastest ATAX run) and move with either; each job's own median does not.
	var perJob []float64
	for _, ms := range writeMS {
		perJob = append(perJob, median(ms))
	}
	m.set("write_p50_ms", geoMean(perJob), "ms")
	slowdown := calib.slowdown()
	atReferenceSpeed(m, slowdown)

	// Correctness checks.
	problems := &out.problems
	fail := func(err error) {
		if err != nil {
			*problems = append(*problems, err.Error())
		}
	}
	fail(reads.err)
	for i, r := range rounds {
		if len(r.execs) == 0 {
			fail(fmt.Errorf("round %d simulated nothing", i+1))
		}
		for _, x := range r.execs {
			if x.err == nil && !cutOff(x.job, x.res) {
				if err := checkResult(x.job, x.res); err != nil {
					fail(fmt.Errorf("%s: %v", x.job, err))
				}
			}
		}
	}
	first := rounds[0]
	byKey := make(map[engine.Key]sim.Result, len(first.execs))
	var unique []engine.Job
	for _, x := range first.execs {
		if _, dup := byKey[x.job.Key()]; !dup {
			unique = append(unique, x.job)
		}
		byKey[x.job.Key()] = x.res
	}
	for _, job := range spec.referenceJobs(rand.New(rand.NewPCG(e.seed, 2)), unique) {
		got, ok := byKey[job.Key()]
		if !ok {
			var err error
			if got, err = engine.Execute(ctx, job); err != nil {
				fail(err)
				continue
			}
		}
		fail(checkReference(job, got))
	}
	base, dy := kindResults(first.execs, spec.scale, config.L1SRAM), kindResults(first.execs, spec.scale, config.DyFUSE)
	ratios, err := dyfuseRatios(spec.workloads, base, dy)
	fail(err)
	if err == nil {
		setDyfuseMetrics(m, ratios)
		fail(checkClaims(ratios))
	}
	if first.tables != nil {
		fail(checkTables(first.tables, first.execs, spec.scale))
	}

	if e.trace {
		if err := tracedSimPass(e, spec, out, rounds, reads, setup); err != nil {
			return nil, err
		}
		lm := out.perLayer
		before, after := rounds[0].before, rounds[0].after
		lm.set("calib.slowdown", slowdown, "ratio")
		lm.set("runtime.gc_cycles", float64(after.numGC-before.numGC), "count")
		lm.set("runtime.alloc_mb", float64(after.totalAlloc-before.totalAlloc)/(1<<20), "MB")
		var firstInstr uint64
		for _, x := range rounds[0].execs {
			firstInstr += x.res.Instructions
		}
		lm.set("runtime.mallocs_per_kinstr", float64(after.mallocs-before.mallocs)/(float64(firstInstr)/1000), "1/kinstr")
		hwAggregate(lm, "dyfuse.", resultsOf(dy, spec.workloads))
		hwAggregate(lm, "l1sram.", resultsOf(base, spec.workloads))
	}
	st.close()
	return out, nil
}

// tracedSimPass sets up once more and runs one round with spans and the
// CPU profile on, then fills the per-layer metrics.
func tracedSimPass(e *env, spec *simSpec, out *outcome, rounds []roundStats, reads readStats,
	setup func(*tracer) (*simStack, time.Duration, error)) error {
	ctx := context.Background()
	tr := &tracer{}
	st, _, err := setup(tr)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer st.close()
	lm := out.perLayer
	root := span{name: "round"}
	err = hostMetrics(lm, filepath.Join(e.workDir, "cpu.pprof"), func() error {
		root.start = time.Now()
		_, err := spec.round(ctx, st, tr)
		root.end = time.Now()
		return err
	})
	if err != nil {
		return fmt.Errorf("traced round: %w", err)
	}
	self := selfTimes(root, tr.spans)
	cover, err := checkSpans(root, tr.spans, self)
	if err != nil {
		out.problems = append(out.problems, err.Error())
	}
	lm.set("trace.span_cover", cover, "ratio")
	wall := root.end.Sub(root.start).Seconds()
	var untraced []float64
	for _, r := range rounds {
		untraced = append(untraced, r.wall.Seconds())
	}
	lm.set("trace.wall_s", wall, "s")
	lm.set("trace.overhead_s", wall-median(untraced), "s")
	lm.set("trace.overhead_frac", wall/median(untraced)-1, "ratio")

	rec := st.rec
	var execS float64
	var instr uint64
	var cycles int64
	for _, x := range rec.execs {
		execS += x.dur.Seconds()
		instr += x.res.Instructions
		cycles += x.res.Cycles
	}
	lm.set("experiments.self_s", self["experiments.render"], "s")
	lm.set("engine.self_s", self["engine.batch"], "s")
	lm.set("engine.jobs", float64(len(st.jobs)), "count")
	lm.set("engine.executed", float64(st.runner.Executed()), "count")
	lm.set("engine.dedup_hits", float64(len(st.jobs)-st.runner.Executed()-st.runner.StoreHits()), "count")
	lm.set("engine.store_hits", float64(reads.storeHits), "count")
	lm.set("store.get_s", rec.getDur.Seconds(), "s")
	lm.set("store.put_s", rec.putDur.Seconds(), "s")
	lm.set("store.gets", float64(rec.gets), "count")
	lm.set("store.hits", float64(rec.hits), "count")
	lm.set("store.memory_evictions", float64(st.mem.Health().Evictions), "count")
	lm.set("store.disk_quarantined", float64(st.disk.Quarantined()), "count")
	lm.set("sim.exec_s", execS, "s")
	lm.set("sim.jobs", float64(len(rec.execs)), "count")
	lm.set("sim.host_ns_per_instr", execS*1e9/float64(instr), "ns")
	lm.set("sim.host_ns_per_cycle", execS*1e9/float64(cycles), "ns")
	lm.set("read_p99_ms", percentile(reads.disk, 99), "ms")
	// No server and no fleet on the in-process workloads.
	lm.notReached("ms", "serve.get_mem_p50_ms", "serve.get_disk_p50_ms", "serve.server_cpu_ms_per_req", "serve.client_cpu_ms_per_req")
	lm.notReached("B", "serve.resp_bytes_per_job")
	lm.notReached("ratio", "serve.warm_share", "serve.get_share", "serve.cold_share")
	lm.notReached("count", "cluster.dispatched", "cluster.redispatched", "cluster.local_runs")
	return nil
}

// readStats holds the warm-read latencies of a simulation workload.
type readStats struct {
	disk      []float64 // milliseconds
	storeHits int
	err       error
}

func (rs *readStats) add(p *readProbe) {
	rs.disk = append(rs.disk, p.lat...)
	rs.storeHits += p.storeHits
	if rs.err == nil {
		rs.err = p.err
	}
}

// readProbe times warm reads interleaved with a round. After each result
// is stored, it reads stored results back through a fresh engine Runner
// over the round's disk tier, as a second fusetables -store process reads
// them, so that the read latency samples the whole run rather than its
// last half-second. A warm read must never simulate, and must return the
// round's own result. The probe's time is left out of the round's.
type readProbe struct {
	disk   *store.Disk
	rng    *rand.Rand
	perPut int
	// calib ticks after each burst; its time counts as the probe's.
	calib *calibrator

	lat       []float64 // milliseconds
	storeHits int
	spent     time.Duration
	checked   map[engine.Key]bool // results already compared with the round's
	err       error
}

// newReadProbe spreads about readsPerRound reads over the stack's distinct
// jobs, one burst after each Put.
func newReadProbe(st *simStack, rng *rand.Rand, calib *calibrator) *readProbe {
	distinct := make(map[engine.Key]bool)
	for _, job := range st.jobs {
		distinct[job.Key()] = true
	}
	return &readProbe{disk: st.disk, rng: rng, perPut: (readsPerRound + len(distinct) - 1) / len(distinct),
		calib: calib, checked: make(map[engine.Key]bool)}
}

// read times one burst of perPut reads of the results stored so far (every
// successful exec before this Put), each distinct result once per fresh
// Runner, so that the disk tier answers every read. Each result is
// compared with the round's once per probe; the first failure is kept.
func (p *readProbe) read(execs []execRecord) {
	start := time.Now()
	defer func() { p.spent += time.Since(start) }()
	ctx := context.Background()
	want := make(map[engine.Key]sim.Result)
	var jobs []engine.Job
	for _, x := range execs {
		if _, dup := want[x.job.Key()]; dup || x.err != nil {
			continue
		}
		want[x.job.Key()] = x.res
		jobs = append(jobs, x.job)
	}
	if len(jobs) == 0 {
		p.err = errors.New("a result was stored with no successful simulation behind it")
		return
	}
	simulated := func(context.Context, engine.Job) (sim.Result, error) {
		return sim.Result{}, errors.New("a warm read simulated: the store lost a result")
	}
	for n := 0; n < p.perPut; {
		runner := engine.New(engine.Config{Exec: simulated, Cache: store.NewTiered(store.NewMemory(), p.disk)})
		for _, i := range p.rng.Perm(len(jobs)) {
			if n == p.perPut {
				break
			}
			job := jobs[i]
			t := time.Now()
			res, err := runner.Get(ctx, job)
			p.lat = append(p.lat, time.Since(t).Seconds()*1000)
			n++
			if p.err != nil {
				continue // the first failure is reported
			}
			if err != nil {
				p.err = fmt.Errorf("warm read of %s: %w", job, err)
			} else if !p.checked[job.Key()] {
				p.checked[job.Key()] = true
				if err := sameResult(res, want[job.Key()]); err != nil {
					p.err = fmt.Errorf("warm read of %s: %v", job, err)
				}
			}
		}
		p.storeHits += runner.StoreHits()
	}
	p.calib.tick()
}

// kindResults maps workload to result for the round's jobs of one L1D kind
// on the default Fermi GPU at the workload's own scale.
func kindResults(execs []execRecord, scale experiments.Scale, kind config.L1DKind) map[string]sim.Result {
	out := make(map[string]sim.Result)
	for _, x := range execs {
		if x.job.GPU == nil && x.job.Label == "" && x.job.Kind == kind && x.job.Opts == scale.Options() {
			out[x.job.Workload] = x.res
		}
	}
	return out
}

func resultsOf(byWorkload map[string]sim.Result, workloads []string) []sim.Result {
	var out []sim.Result
	for _, w := range workloads {
		if r, ok := byWorkload[w]; ok {
			out = append(out, r)
		}
	}
	return out
}

// checkTables recomputes the MEAN and GMEAN rows of Figures 1, 13, 14, 16
// and 17 from the raw results and compares them with the rendered cells.
func checkTables(tables map[string]*stats.Table, execs []execRecord, scale experiments.Scale) error {
	ws := experiments.AllWorkloads()
	res := func(kind config.L1DKind) map[string]sim.Result { return kindResults(execs, scale, kind) }
	var errs []error
	check := func(name, row, col string, want float64) {
		t, ok := tables[name]
		if !ok {
			errs = append(errs, fmt.Errorf("no table for %s", name))
			return
		}
		if err := checkCell(t, row, col, want); err != nil {
			errs = append(errs, err)
		}
	}
	base := res(config.L1SRAM)
	baseCfg := config.FermiGPU(config.NewL1DConfig(config.L1SRAM))

	var offTime, offEnergy []float64
	for _, w := range ws {
		offTime = append(offTime, base[w].OffChipFraction)
		offEnergy = append(offEnergy, energy.FromResult(base[w], baseCfg).OffChipFraction())
	}
	check(experiments.ExpFig1, "MEAN", "time.offchip", mean(offTime))
	check(experiments.ExpFig1, "MEAN", "energy.offchip", mean(offEnergy))

	for _, kind := range []config.L1DKind{config.ByNVM, config.FASRAM, config.Hybrid, config.BaseFUSE, config.FAFUSE, config.DyFUSE} {
		r := res(kind)
		var speedups []float64
		for _, w := range ws {
			speedups = append(speedups, r[w].IPC/base[w].IPC)
		}
		check(experiments.ExpFig13, "GMEAN", kind.String(), geoMean(speedups))
	}
	for _, kind := range []config.L1DKind{config.L1SRAM, config.ByNVM, config.FASRAM, config.Hybrid, config.BaseFUSE, config.FAFUSE, config.DyFUSE} {
		r := res(kind)
		var miss []float64
		for _, w := range ws {
			miss = append(miss, r[w].L1DMissRate)
		}
		check(experiments.ExpFig14, "MEAN", kind.String(), mean(miss))
	}
	dy := res(config.DyFUSE)
	var trueNeutral []float64
	for _, w := range ws {
		trueNeutral = append(trueNeutral, dy[w].PredTrue+dy[w].PredNeutral)
	}
	check(experiments.ExpFig16, "MEAN(true+neutral)", "true", mean(trueNeutral))
	for _, kind := range []config.L1DKind{config.ByNVM, config.BaseFUSE, config.FAFUSE, config.DyFUSE} {
		r := res(kind)
		cfg := config.FermiGPU(config.NewL1DConfig(kind))
		var ratios []float64
		for _, w := range ws {
			b := energy.FromResult(base[w], baseCfg).L1DTotal()
			if b == 0 {
				b = 1
			}
			ratios = append(ratios, energy.FromResult(r[w], cfg).L1DTotal()/b)
		}
		check(experiments.ExpFig17, "GMEAN", kind.String(), geoMean(ratios))
	}
	return errors.Join(errs...)
}
