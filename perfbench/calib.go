package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// The host behind a shared VM changes speed by 10-40% over minutes, slower
// than one run, so runs of the same code disagree by that much whatever
// statistic a run takes over its own requests. A calibrator runs a fixed
// kernel (pseudo-random reads and writes over a 4 MiB table and a small map,
// in no way the program's code) interleaved with the timed work, on the
// same thread, a fixed share of the run's time, and reports how much slower
// than on the reference VM it ran. Host-time metrics are divided by that
// slowdown (rates multiplied), so they read as at the reference host speed;
// a change to the program moves them in full, since the kernel does not
// change with it.
//
// The table is mapped outside the Go heap, so that it does not change the
// garbage collector's pacing of the program; it stays resident, a constant
// 4 MiB in the benchmark process's rss_mb.
const (
	calibTableLen = 1 << 19 // uint64 entries: 4 MiB
	calibOps      = 200_000 // one chunk of the kernel
	// calibEvery is how much run time one timed chunk stands for: with
	// each burst's untimed first chunk, 3-7% of a run goes to the kernel.
	calibEvery = 200 * time.Millisecond
	// calibRefMS is one chunk's mean time on the reference VM (see
	// README.md, Host-speed calibration): the speed metrics are scaled to.
	calibRefMS = 6.0
)

type calibrator struct {
	mapped []byte
	tab    []uint64
	m      map[uint64]uint64
	sink   uint64

	last   time.Time
	chunks int
	spent  time.Duration
}

func newCalibrator() (*calibrator, error) {
	mapped, err := syscall.Mmap(-1, 0, calibTableLen*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	c := &calibrator{mapped: mapped, tab: unsafe.Slice((*uint64)(unsafe.Pointer(&mapped[0])), calibTableLen),
		m: make(map[uint64]uint64, 1024)}
	c.chunk() // fault the table in and grow the map, untimed
	c.last = time.Now()
	return c, nil
}

// close unmaps the table; the calibrator must not tick after it.
func (c *calibrator) close() error {
	if c.mapped == nil {
		return nil
	}
	c.tab = nil
	err := syscall.Munmap(c.mapped)
	c.mapped = nil
	return err
}

// chunk runs the kernel once. Every chunk does the same work: the
// generator restarts from the same state, and the map holds every key it
// will see after the first.
func (c *calibrator) chunk() {
	x := uint64(88172645463325252)
	tab, m := c.tab, c.m
	for i := 0; i < calibOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calibTableLen - 1)
		tab[j] += x
		m[x&1023] += tab[(j*7)&(calibTableLen-1)]
	}
	c.sink += tab[1] + m[3]
}

// tick runs one timed chunk for every calibEvery of run time since the
// last tick, carrying the remainder over, so that each stretch of the run
// weighs by its length and the kernel takes the same share of every run. A
// burst starts with one untimed chunk, so that the timed ones find the
// table in the cache whatever the program left there. It returns the time
// the burst took, for the caller to leave out of its own timing.
func (c *calibrator) tick() time.Duration {
	start := time.Now()
	n := int(start.Sub(c.last) / calibEvery)
	if n == 0 {
		return 0
	}
	c.chunk()
	timed := time.Now()
	for i := 0; i < n; i++ {
		c.chunk()
	}
	end := time.Now()
	c.chunks += n
	c.spent += end.Sub(timed)
	// The burst's own time is not run time the kernel owes chunks for.
	c.last = c.last.Add(time.Duration(n)*calibEvery + end.Sub(start))
	return end.Sub(start)
}

// slowdown is the run's mean chunk time over the reference VM's: above 1
// when the host ran slower.
func (c *calibrator) slowdown() float64 {
	if c.chunks == 0 {
		return 1
	}
	return c.spent.Seconds() * 1000 / float64(c.chunks) / calibRefMS
}

// atReferenceSpeed scales the host-time end-to-end metrics to the
// reference host speed: times are divided by the slowdown, rates
// multiplied. Other metrics are left as measured.
func atReferenceSpeed(m metrics, slowdown float64) {
	for _, name := range []string{"setup_s", "wall_s", "read_p50_ms", "write_p50_ms"} {
		if v, ok := m[name]; ok {
			m.set(name, v.Value/slowdown, v.Unit)
		}
	}
	for _, name := range []string{"sim_instr_per_s", "req_per_s"} {
		if v, ok := m[name]; ok {
			m.set(name, v.Value*slowdown, v.Unit)
		}
	}
}
