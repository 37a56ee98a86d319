// Command perfbench is the repository's end-to-end benchmark: it drives the
// shipped felipserver binary, in separate processes with its production
// defaults (buffered OLH fold at round close, WAL and archive on), from one
// load-generating process, and prints every end-to-end metric of a workload
// as one JSON line. See README.md for the workloads, the metrics and the
// metric → layer → workload map.
//
// Run it through run.sh, which builds both binaries from source:
//
//	bash perfbench/run.sh --workload frames-rounds --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh spread --workload json-cluster -k 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// e2eUnits names the gated end-to-end metrics with their units;
// BENCHMARK.json declares the same names.
var e2eUnits = map[string]string{
	"setup_s":               "s",
	"query_mae":             "fraction",
	"wire_bytes_per_report": "bytes",
	"server_cpu_s":          "s",
	"server_peak_rss_mb":    "MB",
	"success_rate":          "ratio",
}

// ungatedUnits are end-to-end metrics every run measures but that could not
// be held steady on a shared 2-vCPU host: a burst of hypervisor steal or of
// shared-disk fsync latency covering a whole run moves them 1.5–10×. A
// traced run reports them as per-layer diag.<name> metrics; an untraced run
// prints them on its env line.
var ungatedUnits = map[string]string{
	"ingest_rps":         "1/s",
	"ingest_ack_p50_ms":  "ms",
	"ingest_ack_p95_ms":  "ms",
	"round_close_p50_ms": "ms",
	"recover_s":          "s",
	"query_qps":          "1/s",
	"query_p50_ms":       "ms",
	"query_p95_ms":       "ms",
}

// runEnv is one invocation's configuration.
type runEnv struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	server   string // felipserver binary
	state    string // per-run server state directory
}

// outcome is what a workload run measured.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	gate      gate
	// raw holds the gated times as measured, before scaling to the
	// reference host speed.
	raw map[string]float64
	// diag holds the run's trust diagnostics (p99 tails, generator lag),
	// reported with the per-layer metrics of a traced run.
	diag  map[string]float64
	fleet *fleet
	stamp map[string]any
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// loadMemoryLimit is the load process's soft heap limit: with the collector
// off during a measured phase, it collects only when the heap approaches it.
const loadMemoryLimit = 512 << 20

var workloads = map[string]func(*runEnv) (*outcome, error){
	"frames-rounds": runFramesRounds,
	"json-cluster":  runJSONCluster,
	"analyst":       runAnalyst,
}

func main() {
	var env runEnv
	flag.StringVar(&env.server, "server", "", "felipserver binary to drive")
	flag.StringVar(&env.state, "state", ".bench_build/state", "directory for server state (WAL, archive, logs)")
	flag.StringVar(&env.workload, "workload", "", "workload: frames-rounds | json-cluster | analyst")
	flag.Uint64Var(&env.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.IntVar(&env.seconds, "seconds", 20, "measurement budget in seconds (sizes the measured phase)")
	traceFlag := flag.Int("trace", 0, "1 = traced run: emit the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	env.trace = *traceFlag == 1
	debug.SetMemoryLimit(loadMemoryLimit)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()

	if flag.Arg(0) == "spread" {
		code := spreadMain(&env, flag.Args()[1:])
		os.Exit(code)
	}
	code := run(&env)
	stopAll()
	os.Exit(code)
}

func run(env *runEnv) int {
	fn, ok := workloads[env.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want frames-rounds, json-cluster or analyst)\n", env.workload)
		return 2
	}
	if env.server == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -server is required (use run.sh)")
		return 2
	}
	if env.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	env.state = filepath.Join(env.state, env.workload)
	if err := os.RemoveAll(env.state); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(env.state, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	steal0, total0 := hostCPU()
	host.start()
	runFrom := time.Now()
	out, err := fn(env)
	runSpeed := host.speed(runFrom, time.Now())
	host.close()
	steal1, total1 := hostCPU()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", env.workload, err)
		return 1
	}
	res := result{Correct: out.gate.ok(), Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue)}
	var layer map[string]metricValue
	if env.trace && res.Correct {
		layer, err = traceReplay(env, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced replay: %v\n", env.workload, err)
			return 1
		}
	}
	stamp := environment(env, out)
	ungated := make(map[string]float64, len(ungatedUnits))
	for name := range ungatedUnits {
		ungated[name] = out.metrics[name]
	}
	stamp["ungated"] = ungated
	stamp["raw"] = out.raw
	stamp["host_speed"] = runSpeed
	if total1 > total0 {
		stamp["host_steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if b, err := json.Marshal(map[string]any{"env": stamp}); err == nil {
		fmt.Println(string(b))
	}
	if !res.Correct {
		for _, f := range out.gate.failures {
			fmt.Fprintln(os.Stderr, "perfbench: correctness gate:", f)
		}
		printResult(res)
		return 1
	}
	if env.trace {
		res.Metrics = layer
	} else {
		for name, unit := range e2eUnits {
			v, ok := out.metrics[name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(os.Stderr, "perfbench: %s measured no value for %s\n", env.workload, name)
				return 1
			}
			res.Metrics[name] = metricValue{Value: v, Unit: unit}
		}
	}
	printResult(res)
	return 0
}

func printResult(res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Println(string(b))
}

// environment stamps a result with what it was measured on.
func environment(env *runEnv, out *outcome) map[string]any {
	stamp := map[string]any{
		"workload":   env.workload,
		"seed":       env.seed,
		"seconds":    env.seconds,
		"trace":      env.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"state_fs":   fsType(env.state),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	if out.fleet != nil {
		stamp["inputs_digest"] = out.fleet.digest()
	}
	for k, v := range out.stamp {
		stamp[k] = v
	}
	return stamp
}

// hostCPU reads the machine-wide steal and total CPU time (jiffies) from
// /proc/stat: steal is time the hypervisor ran someone else while this VM
// wanted the CPU, the main source of run-to-run noise on shared hosts.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// fsType names the filesystem holding dir, from /proc/self/mounts (longest
// matching mount point).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimRight(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
