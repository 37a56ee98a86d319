package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file runs the system under test: felipserver processes started from
// the freshly built binary, their resource use read from /proc, and their
// teardown. Every process started here is stopped and waited for before the
// benchmark exits.

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux configuration Go supports).
const clockTicks = 100

// proc is one server role whose process may be killed and restarted; its
// CPU time and peak RSS accumulate over every incarnation.
type proc struct {
	name string
	bin  string
	args []string
	addr string
	dir  string

	cmd     *exec.Cmd
	logFile *os.File
	done    chan struct{}
	cpuS    float64
	hwmKB   int64
}

var (
	procsMu sync.Mutex
	procs   []*proc
)

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// newProc declares a server; start launches it. The address is allocated
// once and kept across restarts (cluster shards are addressed statically).
func newProc(name, bin, dir string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, bin: bin, dir: dir, addr: addr,
		args: append([]string{"-addr", addr}, args...)}
	procsMu.Lock()
	procs = append(procs, p)
	procsMu.Unlock()
	return p, nil
}

func (p *proc) base() string { return "http://" + p.addr }

func (p *proc) start() error {
	logf, err := os.OpenFile(filepath.Join(p.dir, p.name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark process killed outright must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("starting %s: %w", p.name, err)
	}
	p.cmd, p.logFile, p.done = cmd, logf, make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		cmd.Wait()
		close(done)
	}(cmd, p.done)
	return nil
}

// waitReady polls until path answers 200 (the listener only opens after
// WAL replay and archive restore, so 200 means recovered).
func (p *proc) waitReady(hc *http.Client, path string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up (see %s.log)", p.name, p.name)
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.base()+path, nil)
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			cancel()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		} else {
			cancel()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s", p.name, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sample folds the running incarnation's CPU time and peak RSS into the
// totals. Call right before the process is signalled.
func (p *proc) sample() {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	pid := p.cmd.Process.Pid
	if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		s := string(b)
		if i := strings.LastIndexByte(s, ')'); i >= 0 {
			fields := strings.Fields(s[i+1:])
			// fields[0] is the state (field 3); utime and stime are fields 14, 15.
			if len(fields) > 12 {
				ut, _ := strconv.ParseFloat(fields[11], 64)
				st, _ := strconv.ParseFloat(fields[12], 64)
				p.cpuS += (ut + st) / clockTicks
			}
		}
	}
	if f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "VmHWM:") {
				kb, _ := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
				if kb > p.hwmKB {
					p.hwmKB = kb
				}
			}
		}
		f.Close()
	}
}

// kill is kill -9: no drain, no WAL sync beyond what acknowledged requests
// already forced.
func (p *proc) kill() { p.signal(syscall.SIGKILL, 0) }

// stop drains the server with SIGTERM, escalating to SIGKILL after 10s.
func (p *proc) stop() { p.signal(syscall.SIGTERM, 10*time.Second) }

func (p *proc) signal(sig syscall.Signal, grace time.Duration) {
	if p.cmd == nil {
		return
	}
	p.sample()
	p.cmd.Process.Signal(sig)
	if grace > 0 {
		select {
		case <-p.done:
		case <-time.After(grace):
			p.cmd.Process.Kill()
		}
	}
	<-p.done
	p.logFile.Close()
	p.cmd = nil
}

// stopAll stops every server still running; the exit path and the
// end of every measured phase.
func stopAll() {
	procsMu.Lock()
	defer procsMu.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// resetProcs stops and forgets every server, so resource totals cover only
// the topology started afterwards.
func resetProcs() {
	stopAll()
	procsMu.Lock()
	procs = nil
	procsMu.Unlock()
}

// serverTotals sums CPU seconds and takes the largest peak RSS over every
// registered server. Call after stopAll: each incarnation is sampled once,
// right before it is signalled.
func serverTotals() (cpuS float64, peakMB float64) {
	procsMu.Lock()
	defer procsMu.Unlock()
	var hwm int64
	for _, p := range procs {
		cpuS += p.cpuS
		hwm = max(hwm, p.hwmKB)
	}
	return cpuS, float64(hwm) / 1024
}
