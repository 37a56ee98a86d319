package main

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// windows collects one value per measurement window (a round, a slice of a
// timed phase, one round close, one restart) for each metric, with the
// window's time span. A run reports the median over the windows during which
// the host stole no more CPU than in its median window: on a shared host the
// hypervisor's steal time comes in bursts that slow every layer at once, and
// this keeps a burst out of the result while a quiet run keeps every window.
type windows map[string][]windowValue

type windowValue struct {
	v        float64
	from, to time.Time
}

// add records a window that started at from and ends now.
func (w windows) add(name string, v float64, from time.Time) {
	w.addSpan(name, v, from, time.Now())
}

func (w windows) addSpan(name string, v float64, from, to time.Time) {
	w[name] = append(w[name], windowValue{v: v, from: from, to: to})
}

// addLatency records a window's latency median and 95th percentile under
// prefix_p50 and prefix_p95.
func (w windows) addLatency(prefix string, msSamples []float64, from time.Time) {
	if len(msSamples) == 0 {
		return
	}
	w.add(prefix+"_p50", median(msSamples), from)
	w.add(prefix+"_p95", percentile(msSamples, 95), from)
}

// median is the median of name's windows whose steal is at most the median
// window's steal.
func (w windows) median(name string) float64 {
	vals := w[name]
	steals := make([]float64, len(vals))
	for i, x := range vals {
		steals[i] = host.share(x.from, x.to)
	}
	limit := median(steals)
	var kept []float64
	for i, x := range vals {
		if steals[i] <= limit {
			kept = append(kept, x.v)
		}
	}
	return median(kept)
}

// hostSampler watches the host while a run measures. Every stealEvery it
// reads the host's cumulative steal and total CPU time, so any window's steal
// share can be read afterwards. Every calibrateEvery it times a fixed
// calibration kernel in thread CPU time, so any window's host speed can be
// read afterwards: on a shared host the same instructions take a varying
// amount of CPU time (another tenant on the sibling hyperthread, memory
// bandwidth, clock), by up to a third within a minute even with no steal.
type hostSampler struct {
	mu      sync.Mutex
	at      []time.Time
	steal   []int64
	total   []int64
	calAt   []time.Time
	calRate []float64 // calibration kernels per thread-CPU second
	// kernel serializes calibrations: they share the kernel's tables.
	kernel  sync.Mutex
	stop    chan struct{}
	stopped sync.WaitGroup
}

const (
	stealEvery     = 50 * time.Millisecond
	calibrateEvery = 100 * time.Millisecond
	// referenceSpeed is the calibration kernel's rate (kernels per
	// thread-CPU second) on the 2-vCPU reference machine at its usual
	// speed. A time scaled to the reference speed is the time the same
	// work would have taken there.
	referenceSpeed = 330
)

// host is the run's sampler.
var host = &hostSampler{}

func (s *hostSampler) start() {
	s.stop = make(chan struct{})
	s.sample()
	s.calibrate()
	s.every(stealEvery, s.sample)
	s.every(calibrateEvery, func() { s.calibrate() })
}

func (s *hostSampler) every(d time.Duration, fn func()) {
	s.stopped.Add(1)
	go func() {
		defer s.stopped.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// close stops the sampler and waits for its goroutines to exit.
func (s *hostSampler) close() {
	if s.stop == nil {
		return
	}
	close(s.stop)
	s.stopped.Wait()
	s.stop = nil
}

func (s *hostSampler) sample() {
	st, tot := hostCPU()
	s.mu.Lock()
	s.at = append(s.at, time.Now())
	s.steal = append(s.steal, st)
	s.total = append(s.total, tot)
	s.mu.Unlock()
}

// share is the host's steal share over the samples that bracket [from, to].
func (s *hostSampler) share(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.at) < 2 {
		return 0
	}
	i, j := 0, len(s.at)-1
	for k, at := range s.at {
		if !at.After(from) {
			i = k
		}
		if !at.Before(to) {
			j = k
			break
		}
	}
	if j <= i {
		j = min(i+1, len(s.at)-1)
		i = j - 1
	}
	dt := s.total[j] - s.total[i]
	if dt <= 0 {
		return 0
	}
	return float64(s.steal[j]-s.steal[i]) / float64(dt)
}

// calibrate times one calibration kernel on the calling goroutine, records
// the rate and returns when it was taken.
func (s *hostSampler) calibrate() time.Time {
	s.kernel.Lock()
	runtime.LockOSThread()
	c0 := threadCPU()
	calibrationKernel()
	c := threadCPU() - c0
	runtime.UnlockOSThread()
	s.kernel.Unlock()
	at := time.Now()
	if c > 0 {
		s.mu.Lock()
		s.calAt = append(s.calAt, at)
		s.calRate = append(s.calRate, float64(time.Second)/float64(c))
		s.mu.Unlock()
	}
	return at
}

// speed is the host's speed over [from, to] relative to referenceSpeed: the
// median calibration rate taken in the span (or the nearest one, for a span
// shorter than calibrateEvery) over referenceSpeed. A time measured on the
// host times speed is the time at the reference speed.
func (s *hostSampler) speed(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rates []float64
	nearest, gap := 0, time.Duration(-1)
	for i, at := range s.calAt {
		if !at.Before(from) && !at.After(to) {
			rates = append(rates, s.calRate[i])
		}
		d := max(from.Sub(at), at.Sub(to))
		if gap < 0 || d < gap {
			nearest, gap = i, d
		}
	}
	if len(rates) == 0 {
		if gap < 0 {
			return 1
		}
		rates = append(rates, s.calRate[nearest])
	}
	return median(rates) / referenceSpeed
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// The calibration kernel mixes what the servers spend their time on: random
// reads and writes over a table larger than the caches, map lookups, a sort
// and float formatting and parsing. It takes about 3 ms at the reference
// speed and allocates nothing.
var (
	calTable = make([]uint64, 1<<20)
	calMap   = func() map[uint64]uint64 {
		m := make(map[uint64]uint64, 1<<16)
		for i := uint64(0); i < 1<<16; i++ {
			m[i*0x9E3779B97F4A7C15] = i
		}
		return m
	}()
	calSorted = make([]int, 2048)
	calInput  = func() []int {
		xs, v := make([]int, 2048), uint64(7)
		for i := range xs {
			v = v*6364136223846793005 + 1
			xs[i] = int(v >> 33)
		}
		return xs
	}()
	calBuf  = make([]byte, 0, 64)
	calSink uint64
)

func calibrationKernel() {
	x := uint64(1)
	for i := 0; i < 200_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		calTable[x>>44] += x
	}
	copy(calSorted, calInput)
	sort.Ints(calSorted)
	for i := 0; i < 6000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		calSink += calMap[(x>>48)*0x9E3779B97F4A7C15]
	}
	for i := 0; i < 400; i++ {
		calBuf = strconv.AppendFloat(calBuf[:0], float64(i)*0.0123456789, 'g', -1, 64)
		f, _ := strconv.ParseFloat(string(calBuf), 64)
		calSink += uint64(f)
	}
}
