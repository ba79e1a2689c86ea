package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fuse/internal/config"
	"fuse/internal/engine"
	"fuse/internal/experiments"
	"fuse/internal/sim"
)

// The serve-mixed load. Each round sends, in a seeded order, warmPerRound
// warm batches of jobsPerWarm working-set jobs, getsPerRound GETs of
// working-set keys, and one single-job cold batch per coldMix entry with a
// seed no earlier request used.
//
// The mix is an assumption, not measured traffic: the repository holds no
// record of what fuseserve's clients send. Reads and writes are timed and
// reported apart, so the counts set how many samples each latency gets;
// only req_per_s and wall_s weigh warm batches against GETs (48:12).
const (
	serveMemCap  = 24 // -memcap: memory-tier entries, below the 42-key working set
	warmPerRound = 48
	jobsPerWarm  = 4
	getsPerRound = 12
	// serveSetupReps set-ups are timed per run: setupsBefore before the
	// timed region (the last of them serves it) and the rest after it, so
	// that the median samples the whole run rather than its first seconds.
	serveSetupReps = 5
	setupsBefore   = 2
	// minWarm is the least number of warm reads the timed region sends, so
	// that the p99 read latency has at least ten samples beyond it.
	minWarm      = 1100
	tracedRounds = 15
	// warmupRounds rounds are sent untimed before the timed region: a
	// fresh server's first cold batches ran 1.6x (first second) and 1.2x
	// (second second) slower than its later ones.
	warmupRounds = 10
	// userHZ is the unit of the CPU times in /proc/<pid>/stat.
	userHZ = 100
)

// coldMix is each round's cold work: read-heavy ATAX and write-heavy PVC
// under both L1D organisations the paper's claims compare, plus write-heavy
// 2MM under Dy-FUSE. An odd count of distinct jobs puts the median cold
// latency inside one job's spread, not on the edge between two.
var coldMix = []jobSpec{
	{Kind: config.L1SRAM.String(), Workload: "ATAX"},
	{Kind: config.DyFUSE.String(), Workload: "ATAX"},
	{Kind: config.L1SRAM.String(), Workload: "PVC"},
	{Kind: config.DyFUSE.String(), Workload: "PVC"},
	{Kind: config.DyFUSE.String(), Workload: "2MM"},
}

// serveScale is the scale fuseserve runs at (-scale quick).
var serveScale = experiments.QuickScale

type jobSpec struct {
	Kind     string `json:"kind"`
	Workload string `json:"workload"`
}

type batchOptions struct {
	Seed uint64 `json:"seed,omitempty"`
}

type batchRequest struct {
	Jobs    []jobSpec     `json:"jobs"`
	Options *batchOptions `json:"options,omitempty"`
}

type batchResponse struct {
	Results []struct {
		Kind     string          `json:"kind"`
		Workload string          `json:"workload"`
		Key      string          `json:"key"`
		Result   json.RawMessage `json:"result"`
		Error    string          `json:"error"`
	} `json:"results"`
}

// served is one result the server handed out, with the job it answers.
type served struct {
	job engine.Job
	key string
	raw json.RawMessage
}

// healthz is the part of fuseserve's /healthz body the benchmark reads.
type healthz struct {
	Status        string `json:"status"`
	Executed      int    `json:"executed"`
	StoreHits     int    `json:"storeHits"`
	Retried       int    `json:"retried"`
	Panics        int    `json:"panics"`
	HandlerPanics int64  `json:"handlerPanics"`
	Store         []struct {
		Tier        string `json:"tier"`
		Evictions   int64  `json:"evictions"`
		Quarantined int64  `json:"quarantined"`
	} `json:"store"`
	Cluster *struct {
		Workers      int   `json:"workers"`
		Dispatched   int64 `json:"dispatched"`
		Redispatched int64 `json:"redispatched"`
		Failed       int64 `json:"failed"`
		LocalRuns    int64 `json:"localRuns"`
	} `json:"cluster"`
}

func (h healthz) tier(name string) (evictions, quarantined int64) {
	for _, t := range h.Store {
		if t.Tier == name {
			return t.Evictions, t.Quarantined
		}
	}
	return 0, 0
}

// server is one fuseserve process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	client *http.Client
	done   chan struct{}
	logs   string
	// stopped is set by the first stop; later calls do nothing.
	stopped bool
}

// freeAddr asks the kernel for a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer starts fuseserve as the serve-mixed workload configures it:
// coordinator with one loopback worker, a fresh disk store, a memory tier
// smaller than the working set, and one P.
func startServer(bin, dir string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "fuseserve.log")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(bin, "-addr", addr, "-scale", "quick", "-store", filepath.Join(dir, "store"),
		"-memcap", strconv.Itoa(serveMemCap), "-coordinator", "-localworkers", "1")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, addr: addr, done: make(chan struct{}), logs: logPath,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}}}
	go func() {
		_ = cmd.Wait() // the exit status shows in the log; stop reports a failed drain
		close(s.done)
	}()
	return s, nil
}

// waitReady returns once /readyz answers 200 and the loopback worker has
// registered. It probes without sleeping, so the wait is not rounded up to
// a poll interval.
func (s *server) waitReady(deadline time.Duration) error {
	limit := time.Now().Add(deadline)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("fuseserve exited during start-up; log:\n%s", s.logTail())
		default:
		}
		if time.Now().After(limit) {
			return fmt.Errorf("fuseserve not ready after %s; log:\n%s", deadline, s.logTail())
		}
		conn, err := net.DialTimeout("tcp", s.addr, time.Second)
		if err != nil {
			runtime.Gosched()
			continue
		}
		conn.Close()
		status, body, _, err := s.do(http.MethodGet, "/readyz", nil)
		if err != nil || status != http.StatusOK {
			continue
		}
		var h healthz
		if err := json.Unmarshal(body, &h); err != nil {
			return fmt.Errorf("/readyz: %w", err)
		}
		if h.Cluster != nil && h.Cluster.Workers == 1 {
			return nil
		}
	}
}

func (s *server) logTail() string {
	data, _ := os.ReadFile(s.logs)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// do sends one request on the client's single connection and returns the
// status, the whole body and the latency up to the body's last byte.
func (s *server) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, "http://"+s.addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	d := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, data, d, err
}

func (s *server) health() (healthz, error) {
	var h healthz
	status, body, _, err := s.do(http.MethodGet, "/healthz", nil)
	if err != nil {
		return h, err
	}
	if status != http.StatusOK {
		return h, fmt.Errorf("/healthz answered %d", status)
	}
	return h, json.Unmarshal(body, &h)
}

// cpu returns the server's user plus system CPU time from /proc/<pid>/stat.
func (s *server) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	text := string(data)
	fields := strings.Fields(text[strings.LastIndexByte(text, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
	}
	// Fields 14 and 15 of stat (utime, stime) are 12 and 13 after comm.
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill() // the drain hung; the wait below still reaps it
		<-s.done
		return errors.New("fuseserve did not drain within 30s")
	}
	if !strings.Contains(s.logTail(), "drained cleanly") {
		return fmt.Errorf("fuseserve did not drain cleanly; log:\n%s", s.logTail())
	}
	return nil
}

// lruModel mirrors the server's memory tier (store.Memory with -memcap):
// Get freshens a resident key; Put inserts at the front and evicts the
// least recently used key beyond capacity.
type lruModel struct {
	capacity  int
	order     *list.List
	at        map[string]*list.Element
	evictions int64
}

func newLRUModel(capacity int) *lruModel {
	return &lruModel{capacity: capacity, order: list.New(), at: make(map[string]*list.Element)}
}

func (m *lruModel) get(key string) bool {
	e, ok := m.at[key]
	if ok {
		m.order.MoveToFront(e)
	}
	return ok
}

func (m *lruModel) put(key string) {
	if e, ok := m.at[key]; ok {
		m.order.MoveToFront(e)
		return
	}
	m.at[key] = m.order.PushFront(key)
	if m.order.Len() > m.capacity {
		victim := m.order.Back()
		m.order.Remove(victim)
		delete(m.at, victim.Value.(string))
		m.evictions++
	}
}

// serveOp is one request of a round.
type serveOp struct {
	kind string // "warm", "get" or "cold"
	jobs []int  // working-set indices (warm)
	key  int    // working-set index (get)
	cold jobSpec
	seed uint64 // cold seed
}

// serveLoad is the state of the client across set-up, timed and traced
// requests.
type serveLoad struct {
	srv     *server
	set     []engine.Job // the working set, in fill order
	keys    []string     // their store keys, from the fill responses
	model   *lruModel
	served  []served
	rounds  int
	tr      *tracer
	failed  int64
	sent    int64
	jobs    int64    // jobs carried by batches
	bodies  [][]byte // warm batch response bodies
	getBody []served // GET responses, to check after the timed region

	warm, cold, getMem, getDisk []float64 // latencies, ms
	// gets holds every GET latency (ms), coldInstr and coldTime the
	// simulated instructions and the latency of every cold batch, and
	// sentBy the requests sent by kind.
	gets      []float64
	coldInstr uint64
	coldTime  time.Duration
	sentBy    map[string]int64
}

// workingSet is every builtin workload under L1-SRAM and Dy-FUSE at the
// server's scale: 42 keys against a 24-entry memory tier.
func workingSet() []engine.Job {
	var jobs []engine.Job
	for _, w := range experiments.AllWorkloads() {
		for _, k := range []config.L1DKind{config.L1SRAM, config.DyFUSE} {
			jobs = append(jobs, engine.Job{Kind: k, Workload: w, Opts: serveScale.Options()})
		}
	}
	return jobs
}

// postBatch sends one batch and returns its decoded body.
func (l *serveLoad) postBatch(jobs []jobSpec, seed uint64) (batchResponse, []byte, time.Duration, error) {
	req := batchRequest{Jobs: jobs}
	if seed != 0 {
		req.Options = &batchOptions{Seed: seed}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return batchResponse{}, nil, 0, err
	}
	status, data, d, err := l.srv.do(http.MethodPost, "/v1/batch", body)
	if err != nil {
		return batchResponse{}, nil, d, err
	}
	if status != http.StatusOK {
		return batchResponse{}, nil, d, fmt.Errorf("POST /v1/batch answered %d: %s", status, data)
	}
	var resp batchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return resp, nil, d, err
	}
	if len(resp.Results) != len(jobs) {
		return resp, nil, d, fmt.Errorf("batch of %d jobs answered %d results", len(jobs), len(resp.Results))
	}
	for _, r := range resp.Results {
		if r.Error != "" {
			return resp, nil, d, fmt.Errorf("job %s/%s: %s", r.Kind, r.Workload, r.Error)
		}
	}
	return resp, data, d, nil
}

func specOf(job engine.Job) jobSpec { return jobSpec{Kind: job.Kind.String(), Workload: job.Workload} }

// fill sends the working set, one single-job batch per key, so that the
// memory tier's recency order is the fill order.
func (l *serveLoad) fill() error {
	l.keys = l.keys[:0]
	for _, job := range l.set {
		resp, _, _, err := l.postBatch([]jobSpec{specOf(job)}, 0)
		if err != nil {
			return fmt.Errorf("fill: %w", err)
		}
		r := resp.Results[0]
		l.keys = append(l.keys, r.Key)
		l.served = append(l.served, served{job: job, key: r.Key, raw: r.Result})
		l.model.put(r.Key)
	}
	return nil
}

// roundOps draws one round's requests from the seeded generator.
func roundOps(rng *rand.Rand, setSize int, coldSeed uint64) []serveOp {
	var ops []serveOp
	for i := 0; i < warmPerRound; i++ {
		ops = append(ops, serveOp{kind: "warm", jobs: rng.Perm(setSize)[:jobsPerWarm]})
	}
	for i := 0; i < getsPerRound; i++ {
		ops = append(ops, serveOp{kind: "get", key: rng.IntN(setSize)})
	}
	for _, c := range coldMix {
		ops = append(ops, serveOp{kind: "cold", cold: c, seed: coldSeed})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// coldSeed is a simulation seed no other request of the run uses: distinct
// per round and per benchmark seed, and never the working set's seed.
func coldSeed(seed uint64, round int) uint64 {
	return seed<<24 + uint64(round) + 1000
}

// runRound sends one round of requests and records their latencies.
func (l *serveLoad) runRound(rng *rand.Rand, seed uint64) error {
	ops := roundOps(rng, len(l.set), coldSeed(seed, l.rounds))
	for _, op := range ops {
		l.sent++
		l.sentBy[op.kind]++
		switch op.kind {
		case "warm":
			jobs := make([]jobSpec, len(op.jobs))
			for i, j := range op.jobs {
				jobs[i] = specOf(l.set[j])
			}
			body, err := json.Marshal(batchRequest{Jobs: jobs})
			if err != nil {
				return err
			}
			end := l.tr.begin("http.warm_batch")
			status, data, d, err := l.srv.do(http.MethodPost, "/v1/batch", body)
			end()
			l.jobs += int64(len(jobs))
			if err != nil || status != http.StatusOK {
				l.failed++
				continue
			}
			l.warm = append(l.warm, d.Seconds()*1000)
			l.bodies = append(l.bodies, data)
		case "get":
			key := l.keys[op.key]
			inMemory := l.model.get(key)
			if !inMemory {
				l.model.put(key) // a disk hit is backfilled into the memory tier
			}
			end := l.tr.begin("http.get_result")
			status, data, d, err := l.srv.do(http.MethodGet, "/v1/result/"+key, nil)
			end()
			if err != nil || status != http.StatusOK {
				l.failed++
				continue
			}
			l.gets = append(l.gets, d.Seconds()*1000)
			if inMemory {
				l.getMem = append(l.getMem, d.Seconds()*1000)
			} else {
				l.getDisk = append(l.getDisk, d.Seconds()*1000)
			}
			l.getBody = append(l.getBody, served{job: l.set[op.key], key: key, raw: data})
		case "cold":
			end := l.tr.begin("http.cold_batch")
			resp, _, d, err := l.postBatch([]jobSpec{op.cold}, op.seed)
			end()
			l.jobs++
			if err != nil {
				l.failed++
				continue
			}
			l.cold = append(l.cold, d.Seconds()*1000)
			kind, err := config.ParseL1DKind(op.cold.Kind)
			if err != nil {
				return err
			}
			opts := serveScale.Options()
			opts.Seed = op.seed
			r := resp.Results[0]
			l.served = append(l.served, served{job: engine.Job{Kind: kind, Workload: op.cold.Workload, Opts: opts}, key: r.Key, raw: r.Result})
			l.model.put(r.Key)
			var res struct{ Instructions uint64 }
			if err := json.Unmarshal(r.Result, &res); err == nil {
				l.coldInstr += res.Instructions
				l.coldTime += d
			}
		}
	}
	l.rounds++
	return nil
}

// resetTimings drops the latencies recorded so far.
func (l *serveLoad) resetTimings() {
	l.warm, l.cold, l.gets, l.getMem, l.getDisk = nil, nil, nil, nil, nil
	l.coldInstr, l.coldTime = 0, 0
}

// readRound is the time, in seconds, a round's reads take at the median
// latency of each kind, over the warm batches and GETs from the given
// indices on. On a shared host the share of slow reads changes from run to
// run (on a 2-vCPU VM the mean warm read ran 0.9 to 1.5 ms against medians
// of 0.8 to 1.1 ms over five runs), which moves a sum or a mean of
// latencies far more than a median; the tail is read_p99_ms.
func (l *serveLoad) readRound(warmFrom, getFrom int) float64 {
	return (warmPerRound*percentile(l.warm[warmFrom:], 50) + getsPerRound*percentile(l.gets[getFrom:], 50)) / 1000
}

func runServeMixed(e *env) (*outcome, error) {
	if _, err := os.Stat(e.fuseserve); err != nil {
		return nil, fmt.Errorf("fuseserve binary: %w", err)
	}
	out := &outcome{endToEnd: metrics{}, perLayer: metrics{}}
	rng := rand.New(rand.NewPCG(e.seed, 3))
	set := workingSet()
	rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })

	// Set-up, repeated: start, wait until ready, fill. Every server but the
	// one the timed region uses is drained and stopped untimed; all their
	// answers are checked.
	var setups []float64
	var allServed []served
	calib, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer calib.close()
	setUp := func(i int) (*serveLoad, error) {
		start := time.Now()
		srv, err := startServer(e.fuseserve, filepath.Join(e.workDir, fmt.Sprintf("server-%d", i)))
		if err != nil {
			return nil, err
		}
		load := &serveLoad{srv: srv, set: set, model: newLRUModel(serveMemCap), sentBy: map[string]int64{}}
		if err := srv.waitReady(60 * time.Second); err != nil {
			_ = srv.stop() // report the start-up failure, not the drain
			return nil, err
		}
		if err := load.fill(); err != nil {
			_ = srv.stop()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		calib.tick()
		return load, nil
	}
	extraSetUp := func(i int) error {
		l, err := setUp(i)
		if err != nil {
			return err
		}
		allServed = append(allServed, l.served...)
		return l.srv.stop()
	}
	for i := 0; i < setupsBefore-1; i++ {
		if err := extraSetUp(i); err != nil {
			return nil, err
		}
	}
	load, err := setUp(setupsBefore - 1)
	if err != nil {
		return nil, err
	}
	srv := load.srv
	defer srv.stop()

	// Warm-up: its requests are checked and counted as attempted like the
	// others, but neither timed nor in the per-request metrics.
	for i := 0; i < warmupRounds; i++ {
		if err := load.runRound(rng, e.seed); err != nil {
			return nil, err
		}
		calib.tick()
	}
	load.resetTimings()
	sent0, jobs0, sentBy0 := load.sent, load.jobs, maps.Clone(load.sentBy)

	// Timed region: whole rounds until the run length has passed and enough
	// warm reads were timed for a p99 with ten samples beyond it.
	h0, err := srv.health()
	if err != nil {
		return nil, err
	}
	srvCPU0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	cpu0 := processCPU()
	var calibTime time.Duration
	start := time.Now()
	for (time.Since(start)-calibTime).Seconds() < e.seconds || len(load.warm) < minWarm {
		if err := load.runRound(rng, e.seed); err != nil {
			return nil, err
		}
		calibTime += calib.tick()
	}
	cpu := processCPU() - cpu0 - calibTime // the kernel's time is not the client's
	srvCPU, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	srvCPU -= srvCPU0
	h1, err := srv.health()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	sent, jobs, timedWarm := load.sent-sent0, load.jobs-jobs0, len(load.warm)
	sentBy := map[string]int64{}
	for k, v := range load.sentBy {
		sentBy[k] = v - sentBy0[k]
	}
	getMem, getDisk := append([]float64(nil), load.getMem...), append([]float64(nil), load.getDisk...)

	// Reads and cold writes are timed apart: a cold batch is a simulation
	// on the worker, so its time would otherwise outweigh every read of
	// the round. wall_s and req_per_s cover the reads, sim_instr_per_s and
	// write_p50_ms the cold batches.
	readRound := load.readRound(0, 0)
	m := out.endToEnd
	m.set("wall_s", readRound, "s")
	m.set("req_per_s", (warmPerRound+getsPerRound)/readRound, "1/s")
	m.set("sim_instr_per_s", float64(load.coldInstr)/load.coldTime.Seconds(), "1/s")
	m.set("rss_mb", rss, "MB")
	m.set("read_p50_ms", percentile(load.warm, 50), "ms")
	m.set("write_p50_ms", median(load.cold), "ms")

	lm := out.perLayer
	if e.trace {
		if err := tracedServePass(e, load, rng, readRound, out); err != nil {
			return nil, err
		}
	}
	out.attempted, out.failed = load.sent, load.failed

	// Checks, after every timed request: the server's counters, then every
	// served result against the program run in this process.
	hEnd, err := srv.health()
	if err != nil {
		return nil, err
	}
	fail := func(err error) {
		if err != nil {
			out.problems = append(out.problems, err.Error())
		}
	}
	fail(checkHealth(hEnd, len(load.served), load.model.evictions))
	fail(srv.stop())
	allServed = append(allServed, load.served...)
	for i := setupsBefore; i < serveSetupReps; i++ {
		if err := extraSetUp(i); err != nil {
			return nil, err
		}
	}
	m.set("setup_s", median(setups), "s")
	slowdown := calib.slowdown()
	atReferenceSpeed(m, slowdown)
	verified, err := verifyServed(allServed, load)
	if err != nil {
		return nil, err
	}
	fail(verified)

	base, dy := map[string]sim.Result{}, map[string]sim.Result{}
	for _, s := range load.served[:len(load.set)] {
		var res sim.Result
		if err := json.Unmarshal(s.raw, &res); err != nil {
			return nil, err
		}
		switch s.job.Kind {
		case config.L1SRAM:
			base[s.job.Workload] = res
		case config.DyFUSE:
			dy[s.job.Workload] = res
		}
	}
	ws := experiments.AllWorkloads()
	ratios, err := dyfuseRatios(ws, base, dy)
	fail(err)
	if err == nil {
		setDyfuseMetrics(m, ratios)
		fail(checkClaims(ratios))
	}

	if e.trace {
		cold := float64(h1.Executed - h0.Executed)
		evictions, _ := hEnd.tier("memory")
		_, quarantined := hEnd.tier("disk")
		// The client sees neither the server's experiments, engine and
		// store calls nor its simulations, and the runtime group is the
		// simulating process's.
		lm.notReached("s", "experiments.self_s", "engine.self_s", "store.get_s", "store.put_s", "sim.exec_s")
		lm.notReached("count", "store.gets", "store.hits", "sim.jobs", "runtime.gc_cycles")
		lm.notReached("ns", "sim.host_ns_per_instr", "sim.host_ns_per_cycle")
		lm.notReached("MB", "runtime.alloc_mb")
		lm.notReached("1/kinstr", "runtime.mallocs_per_kinstr")
		lm.set("calib.slowdown", slowdown, "ratio")
		lm.set("engine.jobs", float64(jobs), "count")
		lm.set("engine.executed", cold, "count")
		lm.set("engine.dedup_hits", float64(jobs)-cold-float64(h1.StoreHits-h0.StoreHits), "count")
		lm.set("engine.store_hits", float64(hEnd.StoreHits), "count")
		lm.set("store.memory_evictions", float64(evictions), "count")
		lm.set("store.disk_quarantined", float64(quarantined), "count")
		lm.set("read_p99_ms", percentile(load.warm[:timedWarm], 99), "ms")
		lm.set("serve.get_mem_p50_ms", percentile(getMem, 50), "ms")
		lm.set("serve.get_disk_p50_ms", percentile(getDisk, 50), "ms")
		var respBytes, respJobs float64
		for _, b := range load.bodies {
			respBytes += float64(len(b))
			respJobs += jobsPerWarm
		}
		lm.set("serve.resp_bytes_per_job", respBytes/respJobs, "B")
		lm.set("serve.server_cpu_ms_per_req", srvCPU.Seconds()*1000/float64(sent), "ms")
		lm.set("serve.client_cpu_ms_per_req", cpu.Seconds()*1000/float64(sent), "ms")
		for _, kind := range []string{"warm", "get", "cold"} {
			lm.set("serve."+kind+"_share", float64(sentBy[kind])/float64(sent), "ratio")
		}
		if c := hEnd.Cluster; c != nil {
			lm.set("cluster.dispatched", float64(c.Dispatched), "count")
			lm.set("cluster.redispatched", float64(c.Redispatched), "count")
			lm.set("cluster.local_runs", float64(c.LocalRuns), "count")
		}
		hwAggregate(lm, "dyfuse.", resultsOf(dy, ws))
		hwAggregate(lm, "l1sram.", resultsOf(base, ws))
	}
	return out, nil
}

// tracedServePass sends tracedRounds more rounds with spans around every
// request and this process under the CPU profiler.
func tracedServePass(e *env, load *serveLoad, rng *rand.Rand, untracedWall float64, out *outcome) error {
	lm := out.perLayer
	load.tr = &tracer{}
	defer func() { load.tr = nil }()
	warmFrom, getFrom := len(load.warm), len(load.gets)
	root := span{name: "rounds"}
	err := hostMetrics(lm, filepath.Join(e.workDir, "cpu.pprof"), func() error {
		root.start = time.Now()
		defer func() { root.end = time.Now() }()
		for i := 0; i < tracedRounds; i++ {
			if err := load.runRound(rng, e.seed); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	self := selfTimes(root, load.tr.spans)
	cover, err := checkSpans(root, load.tr.spans, self)
	if err != nil {
		out.problems = append(out.problems, err.Error())
	}
	lm.set("trace.span_cover", cover, "ratio")
	wall := load.readRound(warmFrom, getFrom)
	lm.set("trace.wall_s", wall, "s")
	lm.set("trace.overhead_s", wall-untracedWall, "s")
	lm.set("trace.overhead_frac", wall/untracedWall-1, "ratio")
	return nil
}

// checkHealth compares the server's counters with what the client sent.
func checkHealth(h healthz, wantExecuted int, wantEvictions int64) error {
	var errs []error
	if h.Status != "ok" {
		errs = append(errs, fmt.Errorf("/healthz status %q", h.Status))
	}
	if h.Executed != wantExecuted {
		errs = append(errs, fmt.Errorf("/healthz executed = %d, the client sent %d cold jobs", h.Executed, wantExecuted))
	}
	if h.Retried != 0 || h.Panics != 0 || h.HandlerPanics != 0 {
		errs = append(errs, fmt.Errorf("/healthz retried=%d panics=%d handlerPanics=%d", h.Retried, h.Panics, h.HandlerPanics))
	}
	if evictions, _ := h.tier("memory"); evictions != wantEvictions {
		errs = append(errs, fmt.Errorf("memory tier evicted %d entries, the LRU model %d", evictions, wantEvictions))
	}
	if _, q := h.tier("disk"); q != 0 {
		errs = append(errs, fmt.Errorf("disk tier quarantined %d entries", q))
	}
	if c := h.Cluster; c == nil {
		errs = append(errs, errors.New("/healthz has no cluster section"))
	} else if c.Redispatched != 0 || c.Failed != 0 {
		errs = append(errs, fmt.Errorf("cluster redispatched=%d failed=%d", c.Redispatched, c.Failed))
	}
	return errors.Join(errs...)
}

// verifyServed runs every distinct served job in this process with
// engine.Execute and compares result and store key; it also checks that
// every warm batch and GET answered the same bytes for a key. It returns
// the check verdict; err reports a failure to run the check itself.
func verifyServed(all []served, load *serveLoad) (verdict error, err error) {
	ctx := context.Background()
	var errs []error
	byKey := make(map[string]served)
	var order []string
	for _, s := range all {
		prev, seen := byKey[s.key]
		if !seen {
			byKey[s.key] = s
			order = append(order, s.key)
			continue
		}
		if prev.job.Key() != s.job.Key() {
			errs = append(errs, fmt.Errorf("key %s answers both %s and %s", s.key, prev.job, s.job))
		}
		if err := sameRaw(prev.raw, s.raw); err != nil {
			errs = append(errs, fmt.Errorf("key %s answered differently: %v", s.key, err))
		}
	}
	want := make(map[string]sim.Result, len(order))
	for _, key := range order {
		s := byKey[key]
		storeKey, err := engine.StoreKey(s.job)
		if err != nil {
			return nil, err
		}
		if storeKey != key {
			errs = append(errs, fmt.Errorf("%s: served key %s, engine.StoreKey gives %s", s.job, key, storeKey))
		}
		res, err := engine.Execute(ctx, s.job)
		if err != nil {
			return nil, err
		}
		want[key] = res
		var got sim.Result
		if err := json.Unmarshal(s.raw, &got); err != nil {
			errs = append(errs, fmt.Errorf("%s: %v", s.job, err))
			continue
		}
		if err := sameResult(got, res); err != nil {
			errs = append(errs, fmt.Errorf("%s served: %v", s.job, err))
		}
		if err := checkResult(s.job, res); err != nil {
			errs = append(errs, fmt.Errorf("%s: %v", s.job, err))
		}
	}
	for _, body := range load.bodies {
		var resp batchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			errs = append(errs, err)
			continue
		}
		for _, r := range resp.Results {
			s, ok := byKey[r.Key]
			if !ok {
				errs = append(errs, fmt.Errorf("warm batch answered unknown key %s", r.Key))
				continue
			}
			if err := sameRaw(s.raw, r.Result); err != nil {
				errs = append(errs, fmt.Errorf("warm batch key %s: %v", r.Key, err))
			}
		}
	}
	for _, g := range load.getBody {
		var got sim.Result
		if err := json.Unmarshal(g.raw, &got); err != nil {
			errs = append(errs, fmt.Errorf("GET %s: %v", g.key, err))
			continue
		}
		if err := sameResult(got, want[g.key]); err != nil {
			errs = append(errs, fmt.Errorf("GET /v1/result/%s disagrees with the batch: %v", g.key, err))
		}
	}
	return errors.Join(errs...), nil
}

// sameRaw compares two JSON encodings of a result, ignoring layout.
func sameRaw(a, b json.RawMessage) error {
	var ca, cb bytes.Buffer
	if err := json.Compact(&ca, a); err != nil {
		return err
	}
	if err := json.Compact(&cb, b); err != nil {
		return err
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		return errors.New("result bytes differ")
	}
	return nil
}
