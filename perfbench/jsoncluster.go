package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"felip/internal/cluster"
	"felip/internal/httpapi"
)

// json-cluster: a coordinator (archive on) and two durable shards (WAL on).
// Single JSON reports go through cluster.Client.ReportWithID, open loop, at a
// fixed offered rate well below saturation; every report is timed from its
// due time. One device in resendEvery resends its report verbatim a little
// later (the honest retry, answered duplicate). The last clusterCycles rounds
// kill -9 shard 0 before closing and restart it over its WAL tail.
const (
	clusterRounds = 12
	clusterCycles = 12
	// offeredRate is the schedule's reports per second, resends included.
	offeredRate = 1000.0
	resendEvery = 16
	// resendLag is how many schedule slots after the original its resend is due.
	resendLag = 32
)

// sendItem is one scheduled submission.
type sendItem struct {
	dev    int
	resend bool
}

func runJSONCluster(env *runEnv) (*outcome, error) {
	perRound := time.Duration(env.seconds) * time.Second / clusterRounds
	devices := int(offeredRate * perRound.Seconds() * resendEvery / (resendEvery + 1))
	spec := fleetSpec{seed: env.seed, devices: devices, rounds: clusterRounds}
	hc := newHTTPClient()
	var (
		f      *fleet
		shards [2]*proc
		coord  *proc
	)
	setupS, setupRaw, err := repeatSetup(env, func() error {
		var err error
		f, err = newFleet(spec)
		return err
	}, func() error {
		var err error
		var bases string
		for i := range shards {
			name := fmt.Sprintf("shard%d", i)
			args := append(f.plan.serverArgs(), "-role", "shard", "-shard-id", name,
				"-wal", env.state+"/"+name+".wal")
			if shards[i], err = startNode(env, hc, name, args...); err != nil {
				return err
			}
			if i > 0 {
				bases += ","
			}
			bases += shards[i].base()
		}
		args := append(f.plan.serverArgs(), "-role", "coordinator", "-shards", bases,
			"-archive", env.state+"/coord.archive")
		coord, err = startNode(env, hc, "coord", args...)
		return err
	})
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	cc := cluster.NewClient(coord.base(), []string{shards[0].base(), shards[1].base()}, hc,
		httpapi.RetryPolicy{MaxAttempts: 1})
	coordCl := httpapi.Dial(coord.base(), hc)
	sched := schedule(env.seed, devices)
	out := &outcome{fleet: f}
	g := &out.gate
	var (
		t              tally
		lagLat         samples
		w              = windows{}
		allAcks, allQs []float64
		wireN          int
		wireB          int64
		answers        []answered
	)
	for r := 1; r <= clusterRounds; r++ {
		ri := f.rounds[r-1]
		var acks samples
		from := time.Now()
		wall := openLoop(ctx, cc, ri, sched, &acks, &lagLat, &t, g)
		w.add("ingest_rps", float64(devices)/wall.Seconds(), from)
		w.addLatency("ingest_ack", acks.values(), from)
		allAcks = append(allAcks, acks.values()...)
		var sts [2]httpapi.Status
		for i, sh := range shards {
			if sts[i], err = status(ctx, hc, sh.base()); err != nil {
				return nil, err
			}
			wireB += wireBytes(sts[i])
			wireN += sts[i].Reports
		}
		if got := sts[0].Reports + sts[1].Reports; got != devices || sts[0].Rejected+sts[1].Rejected != 0 {
			g.failf("round %d: shards hold %d+%d reports (want %d distinct), rejected %d+%d",
				r, sts[0].Reports, sts[1].Reports, devices, sts[0].Rejected, sts[1].Rejected)
		}
		if r > clusterRounds-clusterCycles {
			// Shard 0 dies with the round's reports only in its WAL; it is back
			// when it answers with the whole tail replayed.
			t0, err := restart(shards[0], hc)
			if err != nil {
				return nil, err
			}
			var st httpapi.Status
			err = pollUntil(shards[0], readyTimeout, func() error {
				var err error
				st, err = status(ctx, hc, shards[0].base())
				return err
			})
			if err != nil {
				return nil, err
			}
			w.add("recover", time.Since(t0).Seconds(), t0)
			ok := st.Reports == sts[0].Reports && st.WALReplayed >= sts[0].Reports && st.Round == r
			t.record(1, ok)
			if !ok {
				g.failf("shard0 restart in round %d: reports %d replayed %d round %d, want %d reports",
					r, st.Reports, st.WALReplayed, st.Round, sts[0].Reports)
			}
		}
		n, err := closeRound(ctx, coordCl, w)
		t.record(1, err == nil && n == devices)
		if err != nil || n != devices {
			g.failf("round %d cluster finalize: %d reports, want %d distinct (%v)", r, n, devices, err)
		}
		from = time.Now()
		sw := probeSweep(ctx, hc, coord.base(), f.probes, sweepQueries(env), 0, r, &t, g)
		answers = append(answers, sw.answers...)
		w.addLatency("query", sw.lat, from)
		w.add("query_qps", float64(len(sw.lat))/sw.wall.Seconds(), from)
		allQs = append(allQs, sw.lat...)
		if r < clusterRounds {
			next, err := coordCl.NextRoundTo(ctx, r+1)
			t.record(1, err == nil && next == r+1)
			if err != nil || next != r+1 {
				g.failf("cluster next round after %d: got %d (%v)", r, next, err)
			}
		}
	}

	cpuS, cpuRaw, rssMB := endMeasurement()
	verifyAnswers(g, newReference(f), answers)

	out.metrics = map[string]float64{
		"setup_s":               setupS,
		"ingest_rps":            w.median("ingest_rps"),
		"ingest_ack_p50_ms":     w.median("ingest_ack_p50"),
		"ingest_ack_p95_ms":     w.median("ingest_ack_p95"),
		"round_close_p50_ms":    w.median("round_close"),
		"recover_s":             w.median("recover"),
		"query_qps":             w.median("query_qps"),
		"query_p50_ms":          w.median("query_p50"),
		"query_p95_ms":          w.median("query_p95"),
		"query_mae":             probeMAE(f, answers),
		"wire_bytes_per_report": float64(wireB) / float64(wireN),
		"server_cpu_s":          cpuS,
		"server_peak_rss_mb":    rssMB,
		"success_rate":          float64(t.correct.Load()) / float64(t.attempted.Load()),
	}
	out.raw = map[string]float64{
		"setup_s":      setupRaw,
		"server_cpu_s": cpuRaw,
	}
	out.attempted, out.failed = t.attempted.Load(), t.attempted.Load()-t.correct.Load()
	out.diag = map[string]float64{
		"diag.ingest_ack_p99_ms": percentile(allAcks, 99),
		"diag.query_p99_ms":      percentile(allQs, 99),
		"loadgen.lag_p99_ms":     percentile(lagLat.values(), 99),
	}
	out.stamp = map[string]any{
		"topology":          "felipserver coordinator (-archive) + 2 shards (-wal)",
		"loop":              "open",
		"connections":       conns,
		"offered_rate_rps":  offeredRate,
		"resend_share":      1.0 / float64(resendEvery+1),
		"reports_per_round": devices,
		"rounds":            clusterRounds,
		"restart_cycles":    clusterCycles,
		"ack_samples":       len(allAcks),
		"query_samples":     len(allQs),
	}
	return out, nil
}

// schedule orders one round's submissions: every device once, in device
// order, plus a verbatim resend resendLag slots after the original for the
// devices the seed selects (one in resendEvery).
func schedule(seed uint64, devices int) []sendItem {
	type slot struct {
		at float64
		it sendItem
	}
	var slots []slot
	for d := 0; d < devices; d++ {
		slots = append(slots, slot{at: float64(d), it: sendItem{dev: d}})
		if derive(seed, 5, uint64(d))>>8%resendEvery == 0 { // derive sets the low bit
			slots = append(slots, slot{at: float64(d+resendLag) + 0.5, it: sendItem{dev: d, resend: true}})
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].at < slots[j].at })
	items := make([]sendItem, len(slots))
	for i, s := range slots {
		items[i] = s.it
	}
	return items
}

// openLoop submits one round's schedule at offeredRate: item k is due at
// start + k/offeredRate, and worker w sends the items k ≡ w (mod conns). A
// resend waits for its original's answer. Latency runs from the due time, so
// a stall is charged to every submission it delays; lag is how late the
// generator sent.
func openLoop(ctx context.Context, cc *cluster.Client, ri roundInput, items []sendItem, ackLat, lagLat *samples, t *tally, g *gate) time.Duration {
	done := make([]atomic.Bool, len(ri.ids))
	interval := time.Duration(float64(time.Second) / offeredRate)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(items); k += conns {
				it := items[k]
				due := start.Add(time.Duration(k) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				for it.resend && !done[it.dev].Load() {
					time.Sleep(50 * time.Microsecond)
				}
				lagLat.add(time.Since(due))
				dup, err := cc.ReportWithID(ctx, ri.ids[it.dev], ri.reports[it.dev])
				ackLat.add(time.Since(due))
				ok := err == nil && dup == it.resend
				t.record(1, ok)
				if !ok {
					g.failf("report %s (resend %v): duplicate=%v err=%v", ri.ids[it.dev], it.resend, dup, err)
				}
				if !it.resend {
					done[it.dev].Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}
