package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"felip/internal/httpapi"
)

// setupReps is how many times a run sets its workload up (generate the
// inputs, boot the topology to ready); setup_s is the median, and only the
// last topology is kept for measurement.
const setupReps = 11

// readyTimeout bounds a server's start-up, replay included.
const readyTimeout = 60 * time.Second

// measureFrom is when the measured phase began: the end of set-up.
var measureFrom time.Time

// repeatSetup times setupReps fresh set-ups and returns their median in
// seconds, as measured and scaled to the reference host speed. A set-up is
// generate (every input, built in this process) then boot (the topology,
// until it serves). Only generate is scaled, by the host speed over the
// set-up phase: it is CPU work, while boot is mostly process start-up and
// readiness polling, which do not follow the calibration kernel. Each
// repetition starts from an empty state directory and no servers; the host
// speed is also sampled right before and after each one, as the phase can be
// short.
func repeatSetup(env *runEnv, generate, boot func() error) (scaled, raw float64, err error) {
	var genS, bootS []float64
	var from time.Time
	for i := 0; i < setupReps; i++ {
		resetProcs()
		if err := os.RemoveAll(env.state); err != nil {
			return 0, 0, err
		}
		if err := os.MkdirAll(env.state, 0o755); err != nil {
			return 0, 0, err
		}
		runtime.GC()
		if at := host.calibrate(); i == 0 {
			from = at
		}
		t0 := time.Now()
		if err := generate(); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if err := boot(); err != nil {
			return 0, 0, err
		}
		genS = append(genS, t1.Sub(t0).Seconds())
		bootS = append(bootS, time.Since(t1).Seconds())
		host.calibrate()
	}
	speed := host.speed(from, time.Now())
	scaledS, rawS := make([]float64, setupReps), make([]float64, setupReps)
	for i := range genS {
		scaledS[i] = genS[i]*speed + bootS[i]
		rawS[i] = genS[i] + bootS[i]
	}
	// The load process must not compete with the servers for CPU through its
	// own garbage collector: its live heap is the generated fleet, and a
	// collection during a timed phase shows up as server latency. Collect the
	// set-up garbage now, then collect only near loadMemoryLimit until
	// endMeasurement.
	runtime.GC()
	debug.FreeOSMemory()
	debug.SetGCPercent(-1)
	measureFrom = time.Now()
	return median(scaledS), median(rawS), nil
}

// endMeasurement stops every server, turns the load process's collector
// back on for verification, and returns the servers' resource totals: CPU
// seconds scaled to the reference host speed over the measured phase, CPU
// seconds as measured, and the peak RSS.
func endMeasurement() (cpuS, rawCPUS, peakMB float64) {
	stopAll()
	debug.SetGCPercent(100)
	rawCPUS, peakMB = serverTotals()
	return rawCPUS * host.speed(measureFrom, time.Now()), rawCPUS, peakMB
}

// startNode launches one felipserver and waits until it serves.
func startNode(env *runEnv, hc *http.Client, name string, args ...string) (*proc, error) {
	p, err := newProc(name, env.server, env.state, args...)
	if err != nil {
		return nil, err
	}
	if err := p.start(); err != nil {
		return nil, err
	}
	if err := p.waitReady(hc, "/v1/healthz", readyTimeout); err != nil {
		return nil, err
	}
	return p, nil
}

// durableArgs are a standalone node's production flags: the plan, a WAL and
// an archive under the run's state directory.
func durableArgs(env *runEnv, f *fleet, name string) []string {
	return append(f.plan.serverArgs(),
		"-wal", filepath.Join(env.state, name+".wal"),
		"-archive", filepath.Join(env.state, name+".archive"))
}

// restart is kill -9 followed by a cold start on the same address and state.
// It returns once the process is launched; the caller times recovery.
func restart(p *proc, hc *http.Client) (time.Time, error) {
	p.kill()
	hc.CloseIdleConnections()
	t0 := time.Now()
	return t0, p.start()
}

// pollUntil retries fn every millisecond until it succeeds, the process
// exits, or the timeout passes. Connection refusals while the restarted
// server replays its WAL are expected.
func pollUntil(p *proc, timeout time.Duration, fn func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := fn()
		if err == nil {
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during recovery (see %s.log)", p.name, p.name)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not recover within %s: %v", p.name, timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// closeRound finalizes the collecting round, records the round_close window
// in ms, and returns the acknowledged report count; the next round's engine
// is served, warmed and archived by the time the acknowledgement arrives.
func closeRound(ctx context.Context, cl *httpapi.Client, w windows) (int, error) {
	t0 := time.Now()
	n, err := cl.Finalize(ctx)
	if err == nil {
		w.add("round_close", ms(time.Since(t0)), t0)
	}
	return n, err
}
