package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func smallFleet(t *testing.T, seed uint64) *fleet {
	t.Helper()
	f, err := newFleet(fleetSpec{seed: seed, devices: 3000, rounds: 2, frames: true})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func probeAnswers(t *testing.T, f *fleet) []float64 {
	t.Helper()
	ref := newReference(f)
	var out []float64
	for _, p := range f.probes {
		v, err := ref.answer(1, p.q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// The generator is a pure function of the seed: the same seed yields the
// same report multiset and the same probe answers, another seed another
// multiset.
func TestGeneratorDeterministicInSeed(t *testing.T) {
	a, b := smallFleet(t, 7), smallFleet(t, 7)
	if a.digest() != b.digest() {
		t.Fatalf("same seed, different digests: %s vs %s", a.digest(), b.digest())
	}
	for r := range a.rounds {
		if len(a.rounds[r].frames) != len(b.rounds[r].frames) {
			t.Fatalf("round %d: frame counts differ", r+1)
		}
		for i := range a.rounds[r].frames {
			if string(a.rounds[r].frames[i]) != string(b.rounds[r].frames[i]) {
				t.Fatalf("round %d frame %d differs", r+1, i)
			}
		}
	}
	pa, pb := probeAnswers(t, a), probeAnswers(t, b)
	for i := range pa {
		if !sameFloat(pa[i], pb[i]) {
			t.Fatalf("probe %d: %v vs %v", i, pa[i], pb[i])
		}
	}
	if c := smallFleet(t, 8); c.digest() == a.digest() {
		t.Fatalf("seeds 7 and 8 generated the same multiset %s", a.digest())
	}
}

// Report IDs are per (device, round): no ID repeats across a fleet's rounds,
// so the cross-round dedup index never turns a new round's report into a
// duplicate.
func TestReportIDsUniqueAcrossRounds(t *testing.T) {
	f := smallFleet(t, 3)
	seen := make(map[string]bool)
	for _, ri := range f.rounds {
		for _, id := range ri.ids {
			if seen[id] {
				t.Fatalf("id %s repeats", id)
			}
			seen[id] = true
		}
	}
}

// The open-loop schedule sends every device once and each selected device's
// resend strictly after its original.
func TestScheduleResendsFollowOriginals(t *testing.T) {
	items := schedule(11, 2000)
	at := make(map[int]int)
	resends := 0
	for k, it := range items {
		if it.resend {
			resends++
			orig, ok := at[it.dev]
			if !ok || orig >= k {
				t.Fatalf("resend of %d at %d precedes its original", it.dev, k)
			}
			continue
		}
		if _, dup := at[it.dev]; dup {
			t.Fatalf("device %d scheduled twice", it.dev)
		}
		at[it.dev] = k
	}
	if len(at) != 2000 || resends == 0 || resends > 2000/resendEvery*2 {
		t.Fatalf("%d devices, %d resends", len(at), resends)
	}
}

// quartiles must agree with Python's statistics.quantiles(n=4), the
// definition the spread bound is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// BENCHMARK.json declares exactly the metrics the benchmark emits.
func TestBenchmarkJSONMatchesEmittedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s (%s) is not emitted with that unit (emitted unit %q)", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eUnits)
	check("per_layer", spec.PerLayer, layerUnits)
	for _, w := range spec.Workload {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

// A span's host speed is the median calibration rate taken inside it, or
// the nearest one for a span no calibration fell in.
func TestSpeedIsTheSpansCalibration(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &hostSampler{
		calAt:   []time.Time{at(0), at(10), at(20), at(100)},
		calRate: []float64{referenceSpeed, 2 * referenceSpeed, 3 * referenceSpeed, referenceSpeed / 2},
	}
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{0, 20, 2},     // median of the three inside
		{95, 120, 0.5}, // one inside
		{40, 50, 3},    // none inside: the nearest, at 20 ms
		{80, 90, 0.5},  // none inside: the nearest, at 100 ms
	} {
		if got := s.speed(at(c.from), at(c.to)); got != c.want {
			t.Errorf("speed(%d..%d ms) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}
