package main

import (
	"context"
	"time"

	"felip/internal/httpapi"
	"felip/internal/wire"
)

// frames-rounds: one standalone durable node (WAL + archive). Two connections
// post 512-report FELIPBF1 frames closed-loop, as device batchers do, for
// framesRounds rounds with per-(device, round) report IDs; each round is
// closed (finalize, a probe sweep, next round). Every rate and
// percentile is taken per round and the run reports the median round. The
// last round is left open,
// the node is killed -9 and restarted framesCycles times over that full-round
// WAL tail, and only then closed.
const (
	framesRounds = 16
	framesCycles = 11
	// framesPerRound frames of framesPerBatch reports make one round.
	framesPerRound = 96
)

// sweepQueries is the size of each round's probe sweep: 100 queries per
// second of --seconds.
func sweepQueries(env *runEnv) int { return 100 * env.seconds }

func runFramesRounds(env *runEnv) (*outcome, error) {
	devices := framesPerRound * framesPerBatch
	spec := fleetSpec{seed: env.seed, devices: devices, rounds: framesRounds, frames: true}
	hc := newHTTPClient()
	var (
		f    *fleet
		node *proc
	)
	setupS, setupRaw, err := repeatSetup(env, func() error {
		var err error
		f, err = newFleet(spec)
		return err
	}, func() error {
		var err error
		node, err = startNode(env, hc, "node", durableArgs(env, f, "node")...)
		return err
	})
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	cl := httpapi.Dial(node.base(), hc)
	out := &outcome{fleet: f}
	g := &out.gate
	var (
		t               tally
		w               = windows{}
		allAcks, allQs  []float64
		distinct, wireN int
		wireB           int64
		answers         []answered
	)
	closeAndSweep := func(r, n int) {
		got, err := closeRound(ctx, cl, w)
		t.record(1, err == nil && got == n)
		if err != nil || got != n {
			g.failf("round %d finalize: %d reports, want %d distinct (%v)", r, got, n, err)
		}
		from := time.Now()
		sw := probeSweep(ctx, hc, node.base(), f.probes, sweepQueries(env), 0, r, &t, g)
		answers = append(answers, sw.answers...)
		w.addLatency("query", sw.lat, from)
		w.add("query_qps", float64(len(sw.lat))/sw.wall.Seconds(), from)
		allQs = append(allQs, sw.lat...)
	}

	for r := 1; r <= framesRounds; r++ {
		ri := f.rounds[r-1]
		var acks samples
		from := time.Now()
		wall := postFrames(ctx, cl, ri.frames, wire.DispositionAccepted, &acks, &t, g)
		w.add("ingest_rps", float64(len(ri.ids))/wall.Seconds(), from)
		w.addLatency("ingest_ack", acks.values(), from)
		allAcks = append(allAcks, acks.values()...)
		distinct += len(ri.ids)
		// An honest retry of a whole frame: every report answers duplicate.
		postFrames(ctx, cl, ri.frames[:1], wire.DispositionDuplicate, nil, &t, g)
		st, err := status(ctx, hc, node.base())
		if err != nil {
			return nil, err
		}
		checkRound(g, st, r, len(ri.ids), distinct)
		wireB += wireBytes(st)
		wireN += st.Reports
		if r == framesRounds {
			break
		}
		closeAndSweep(r, len(ri.ids))
		next, err := cl.NextRoundTo(ctx, r+1)
		t.record(1, err == nil && next == r+1)
		if err != nil || next != r+1 {
			g.failf("next round after %d: got %d (%v)", r, next, err)
		}
	}

	// Recovery: the last round's reports are only in the WAL tail; the served
	// round comes back from the archive. Recovery ends at the first answered
	// query, which must match the pre-crash answer bit for bit.
	tail := f.rounds[framesRounds-1]
	served := framesRounds - 1
	p0 := f.probes[0]
	want0 := -1.0
	for _, a := range answers {
		if a.round == served && a.q.String() == p0.q.String() {
			want0 = a.estimate
		}
	}
	for c := 0; c < framesCycles; c++ {
		t0, err := restart(node, hc)
		if err != nil {
			return nil, err
		}
		var resp wire.QueryResponse
		err = pollUntil(node, readyTimeout, func() error {
			var err error
			resp, err = getQuery(ctx, hc, node.base(), queryParams{where: p0.where})
			return err
		})
		if err != nil {
			return nil, err
		}
		w.add("recover", time.Since(t0).Seconds(), t0)
		ok := resp.Round == served && sameFloat(resp.Estimate, want0)
		st, err := status(ctx, hc, node.base())
		ok = ok && err == nil && st.Reports == len(tail.ids) && st.WALReplayed == len(tail.ids)
		t.record(1, ok)
		if !ok {
			g.failf("restart %d: round %d estimate %v (want %v), status reports %d replayed %d (want %d): %v",
				c+1, resp.Round, resp.Estimate, want0, st.Reports, st.WALReplayed, len(tail.ids), err)
		}
	}
	// Exactly-once across the restarts: resent tail frames are duplicates.
	postFrames(ctx, cl, tail.frames[:2], wire.DispositionDuplicate, nil, &t, g)
	closeAndSweep(framesRounds, len(tail.ids))

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
		"loadgen.lag_p99_ms":     0, // closed loop: every send is on time by construction
	}
	out.stamp = map[string]any{
		"topology":          "standalone felipserver, -wal and -archive",
		"loop":              "closed",
		"connections":       conns,
		"reports_per_round": devices,
		"frame_reports":     framesPerBatch,
		"rounds":            framesRounds,
		"restart_cycles":    framesCycles,
		"ack_samples":       len(allAcks),
		"query_samples":     len(allQs),
	}
	return out, nil
}

// checkRound asserts a collecting round's exactly-once identity from the
// server's own status: reports == distinct IDs sent this round, and the
// dedup index holds every distinct ID since the process started.
func checkRound(g *gate, st httpapi.Status, round, sent, dedup int) {
	if st.Round != round || st.Reports != sent || st.DedupEntries != dedup || st.Rejected != 0 {
		g.failf("round %d status: round %d reports %d (want %d) dedup %d (want %d) rejected %d",
			round, st.Round, st.Reports, sent, st.DedupEntries, dedup, st.Rejected)
	}
}
