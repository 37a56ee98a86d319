package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spreadMain is the spread command: it runs one workload k times with
// consecutive seeds, then prints per end-to-end metric the median, the
// quartiles and IQR/median next to the metric's bound from BENCHMARK.json.
// It then repeats the first seed, which must reproduce query_mae and
// wire_bytes_per_report exactly, and makes one traced run to report the
// tracing overhead.
//
//	bash perfbench/run.sh spread --workload analyst -k 10 --seed0 1
func spreadMain(env *runEnv, args []string) int {
	fs := flag.NewFlagSet("spread", flag.ContinueOnError)
	workload := fs.String("workload", env.workload, "workload to run")
	k := fs.Int("k", 5, "runs")
	seed0 := fs.Uint64("seed0", 1, "seed of the first run; run i uses seed0+i")
	seconds := fs.Int("seconds", 0, "seconds per run (0 = run_seconds from BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spread:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spread:", err)
		return 1
	}
	type envLine struct {
		Env struct {
			Ungated map[string]float64 `json:"ungated"`
			Raw     map[string]float64 `json:"raw"`
			Steal   float64            `json:"host_steal_pct"`
			Speed   float64            `json:"host_speed"`
		} `json:"env"`
	}
	var steals, speeds []string
	ungated := make(map[string][]float64)
	raw := make(map[string][]float64)
	runOnce := func(seed uint64, trace int) (result, error) {
		cmd := exec.Command(self, "-server", env.server, "-state", env.state,
			"--workload", *workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(trace))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return res, fmt.Errorf("seed %d: no result (%v)", seed, runErr)
		}
		var env envLine
		if len(lines) > 1 && json.Unmarshal([]byte(lines[len(lines)-2]), &env) == nil && trace == 0 {
			for name, v := range env.Env.Ungated {
				ungated[name] = append(ungated[name], v)
			}
			for name, v := range env.Env.Raw {
				raw[name] = append(raw[name], v)
			}
			steals = append(steals, strconv.FormatFloat(env.Env.Steal, 'f', 1, 64))
			speeds = append(speeds, strconv.FormatFloat(env.Env.Speed, 'f', 3, 64))
		}
		if runErr != nil || !res.Correct {
			return res, fmt.Errorf("seed %d: run failed (correct=%v, %v)", seed, res.Correct, runErr)
		}
		return res, nil
	}

	values := make(map[string][]float64)
	var first result
	for i := 0; i < *k; i++ {
		seed := *seed0 + uint64(i)
		res, err := runOnce(seed, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spread:", err)
			return 1
		}
		if i == 0 {
			first = res
		}
		for name, v := range res.Metrics {
			values[name] = append(values[name], v.Value)
		}
		fmt.Fprintf(os.Stderr, "perfbench spread: %s run %d/%d (seed %d) done\n", *workload, i+1, *k, seed)
	}
	fmt.Printf("%s: %d runs of %ds, seeds %d..%d\n", *workload, *k, *seconds, *seed0, *seed0+uint64(*k)-1)
	fmt.Printf("%-24s %-9s %12s %12s %12s %8s %6s %7s  %-13s %s\n",
		"metric", "unit", "median", "q1", "q3", "iqr/med", "bound", "bound/3", "verdict", "runs")
	worst := "ok"
	for _, m := range spec.EndToEnd {
		xs := values[m.Name]
		q1, q2, q3 := quartiles(xs)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		verdict := "steady"
		switch {
		case spread > m.Bound:
			verdict, worst = "OVER BOUND", "over"
		case spread > m.Bound/3:
			verdict = "above bound/3"
		}
		runs := make([]string, len(xs))
		for i, x := range xs {
			runs[i] = strconv.FormatFloat(x, 'g', 4, 64)
		}
		fmt.Printf("%-24s %-9s %12.5g %12.5g %12.5g %8.3f %6.2f %7.3f  %-13s %s\n",
			m.Name, m.Unit, q2, q1, q3, spread, m.Bound, m.Bound/3, verdict, strings.Join(runs, " "))
	}
	info := func(title string, m map[string][]float64, units map[string]string, verdict string) {
		fmt.Println(title)
		for _, name := range sortedNames(m) {
			xs := m[name][:min(len(m[name]), *k)]
			q1, q2, q3 := quartiles(xs)
			runs := make([]string, len(xs))
			for i, x := range xs {
				runs[i] = strconv.FormatFloat(x, 'g', 4, 64)
			}
			fmt.Printf("%-24s %-9s %12.5g %12.5g %12.5g %8.3f %6s %7s  %-13s %s\n",
				name, units[name], q2, q1, q3, (q3-q1)/math.Abs(q2), "-", "-", verdict, strings.Join(runs, " "))
		}
	}
	info("gated times as measured, before scaling to the reference host speed (not gated):", raw, e2eUnits, "as measured")
	info("ungated (reported, not gated; see README.md):", ungated, ungatedUnits, "ungated")
	fmt.Printf("host steal %% per run: %s\n", strings.Join(steals[:min(len(steals), *k)], " "))
	fmt.Printf("host speed per run (reference = 1): %s\n", strings.Join(speeds[:min(len(speeds), *k)], " "))
	// The seed alone determines accuracy and wire cost: a second run of the
	// first seed must reproduce both exactly.
	again, err := runOnce(*seed0, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spread: repeat run:", err)
		return 1
	}
	for _, name := range []string{"query_mae", "wire_bytes_per_report"} {
		a, b := first.Metrics[name].Value, again.Metrics[name].Value
		verdict := "identical"
		if a != b {
			verdict, worst = "DIFFERS", "over"
		}
		fmt.Printf("repeat of seed %d: %s %v vs %v: %s\n", *seed0, name, a, b, verdict)
	}
	res, err := runOnce(*seed0, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spread: traced run:", err)
		return 1
	}
	fmt.Printf("tracing overhead (traced minus untraced in-process replay): %.2f%% over %.0f spans\n",
		res.Metrics["trace.overhead_pct"].Value, res.Metrics["trace.spans"].Value)
	if worst != "ok" {
		return 1
	}
	return 0
}

func sortedNames(m map[string][]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// benchmarkSpec is the part of BENCHMARK.json the spread command reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkJSON(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, fmt.Errorf("reading %s (run from the repository root): %w", path, err)
	}
	return spec, json.Unmarshal(b, &spec)
}
