package main

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was sized on is shared: other tenants take
// turns on the cores' sibling threads, caches and memory bus, so the
// work a CPU second buys changes by up to 40% from one second to the
// next and drifts by 10–30% over minutes. That swamps any difference
// between two commits measured minutes apart. So while the benchmark
// runs, a reference runs beside it on a thread of its own: a slice of
// fixed work every refEvery, timed in that thread's CPU time, so time
// it waits for a processor is not counted. Every reported time is
// scaled by refNominal over the reference's mean slice time during the
// same unit: a time in reference seconds, the host seconds the unit
// would have taken had the host run the reference at its nominal speed.
//
// The reference is shaped like the simulator's allocation paths —
// word-wise searches for runs of free bits, setting and clearing runs,
// copying block lists — and lives here, outside the program, so no
// change to the program can move it. It allocates nothing, so no
// garbage collection, whose cost depends on the program's heap, runs
// inside it. It is frozen: changing it changes every reported time.

const (
	// refNominal is one reference slice's CPU time on the nominal host,
	// a quiet 2-vCPU Sapphire Rapids Xeon VM.
	refNominal = 600 * time.Microsecond
	// refEvery is how often the reference runs a slice: it takes about
	// a twentieth of one processor.
	refEvery = 10 * time.Millisecond

	refBitmapWords = 1 << 16 // 512 KiB of bitmap
	refBits        = refBitmapWords * 64
	refRounds      = 6000
)

// refState is the reference's memory, allocated once so that timing it
// measures the host, not first-touch page faults.
type refState struct {
	bitmap []uint64
	keep   [256][32]int32
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// slice does the reference work once, from the same state every time.
func (s *refState) slice() {
	clear(s.bitmap)
	r := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < refRounds; i++ {
		r = xorshift(r)
		n := 1 + int(r>>59) // a run of 1..32 bits
		pos := s.findFree(int(r>>20)%refBits, n)
		if pos >= 0 {
			s.setRun(pos, n, true)
		}
		if i%3 == 2 {
			r = xorshift(r)
			s.setRun(int(r>>22)%(refBits-32), 32, false)
		}
		// The run's block list, kept for a while like a file's.
		b := &s.keep[i%len(s.keep)]
		for j := 0; j < n; j++ {
			b[j] = int32(pos + j)
		}
	}
}

// findFree returns the first run of n clear bits at or after start, or
// -1, scanning a word at a time.
func (s *refState) findFree(start, n int) int {
	run := 0
	for i := start; i < refBits; {
		w := s.bitmap[i/64] >> (i % 64)
		if w&1 == 0 {
			z := min(bits.TrailingZeros64(w), 64-i%64)
			run += z
			i += z
			if run >= n {
				return i - run
			}
		} else {
			run = 0
			i += bits.TrailingZeros64(^w)
		}
	}
	return -1
}

func (s *refState) setRun(pos, n int, set bool) {
	for i := pos; i < pos+n && i < refBits; i++ {
		if set {
			s.bitmap[i/64] |= 1 << (i % 64)
		} else {
			s.bitmap[i/64] &^= 1 << (i % 64)
		}
	}
}

// refClock runs the reference beside the benchmark, and at each slice
// also reads how much memory the program holds. A nil *refClock scales
// nothing (the traced run).
type refClock struct {
	stop, done chan struct{}
	once       sync.Once
	mu         sync.Mutex
	total      refMark  // every slice so far
	held       []uint64 // memory held at each slice
}

// refMark counts the reference slices run so far and their CPU and
// wall time.
type refMark struct {
	n         int
	cpu, wall time.Duration
}

func startRefClock() (*refClock, error) {
	if _, err := threadCPU(); err != nil {
		return nil, err
	}
	c := &refClock{stop: make(chan struct{}), done: make(chan struct{})}
	go c.loop()
	return c, nil
}

func (c *refClock) loop() {
	defer close(c.done)
	// A thread of its own, so thread CPU time is the slice's alone.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	s := &refState{bitmap: make([]uint64, refBitmapWords)}
	s.slice() // warm-up, untimed
	mem := newMemReader()
	tick := time.NewTicker(refEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		held := mem.held()
		w0, t0 := time.Now(), mustThreadCPU()
		s.slice()
		d, w := mustThreadCPU()-t0, time.Since(w0)
		c.mu.Lock()
		c.total.n++
		c.total.cpu += d
		c.total.wall += w
		c.held = append(c.held, held)
		c.mu.Unlock()
	}
}

// mark returns the slices run so far.
func (c *refClock) mark() refMark {
	if c == nil {
		return refMark{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// refScale converts host seconds measured over an interval to
// reference seconds: wall scales wall time, cpu scales CPU time. Wall
// time also loses what the hypervisor takes from the virtual CPUs,
// which thread CPU time does not count.
type refScale struct{ wall, cpu float64 }

// since returns the scale over the interval since m, the CPU time the
// reference took in it, and the most memory the program held in it,
// read at each slice and at its end. An interval too short to hold a
// slice takes the scale of the run so far.
func (c *refClock) since(m refMark) (k refScale, cpu time.Duration, peak uint64) {
	peak = newMemReader().held()
	if c == nil {
		return refScale{1, 1}, 0, peak
	}
	c.mu.Lock()
	now := c.total
	for _, h := range c.held[m.n:] {
		peak = max(peak, h)
	}
	c.mu.Unlock()
	d := refMark{now.n - m.n, now.cpu - m.cpu, now.wall - m.wall}
	if d.n == 0 {
		d = now
	}
	if d.n == 0 {
		return refScale{1, 1}, 0, peak
	}
	n := refNominal.Seconds() * float64(d.n)
	return refScale{n / d.wall.Seconds(), n / d.cpu.Seconds()}, now.cpu - m.cpu, peak
}

// memReader reads the memory the program holds: what the Go runtime
// has mapped from the operating system less what it has returned.
type memReader []metrics.Sample

func newMemReader() memReader {
	return memReader{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
}

func (r memReader) held() uint64 {
	metrics.Read(r)
	return r[0].Value.Uint64() - r[1].Value.Uint64()
}

// close stops the reference and waits for it to end; later calls do
// nothing.
func (c *refClock) close() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}

// threadCPU returns the calling thread's CPU time.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("thread CPU clock: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// mustThreadCPU is threadCPU on a thread whose clock startRefClock has
// already read: only a bug can make it fail.
func mustThreadCPU() time.Duration {
	d, err := threadCPU()
	if err != nil {
		panic(err)
	}
	return d
}
