package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"felip/internal/fo"
	"felip/internal/httpapi"
	"felip/internal/wire"
)

// analyst: one standalone durable node. The preload feeds analystRounds
// rounds through the program — more than the archive's 4-engine cache holds —
// then two connections run a closed-loop query mix for the measured phase:
// current-round GETs at λ = 1..4, batch POSTs, round-targeted queries inside
// and outside the engine cache, and rounds=lo..hi windows. Beside the
// queries, an open-loop trickle of small frames feeds the collecting round
// (writes beside reads, on the same server lock); it rides the first
// connection, each frame sent as soon as it falls due and that connection is
// free. The run ends with kill -9 /
// restart cycles over the trickle round's WAL tail, then closes it.
const (
	analystRounds    = 16
	analystCycles    = 11
	analystFrames    = 32 // preload frames per round
	trickleFrameSize = 64
	batchQueries     = 16
	// mixWindow is the slice of the measured phase a window median covers.
	mixWindow = time.Second
	// mixRequestsPerSecond sizes the query mix: each connection sends this
	// many requests per second of --seconds (about that long on the 2-core
	// reference machine).
	mixRequestsPerSecond = 1000
	// mixPattern is the length of each connection's op sequence, cycled.
	mixPattern = 4096
)

// Query mix kinds and their shares (per mille).
const (
	kindCurrent = iota // current round, λ = 1..4
	kindBatch          // POST of batchQueries current-round expressions
	kindHot            // round-targeted, a round the engine cache keeps
	kindCold           // round-targeted, a round outside the cache
	kindWindow         // rounds=lo..hi window over cached rounds
)

var mixShares = []struct{ kind, perMille int }{
	{kindCurrent, 500}, {kindBatch, 100}, {kindHot, 260}, {kindCold, 20}, {kindWindow, 120},
}

// mixOp is one query-mix request.
type mixOp struct {
	kind   int
	params queryParams
	batch  []probe
	pr     probe
}

// hotRounds are re-read often enough to stay in the archive's LRU cache;
// coldRounds cycle through its remaining slot.
var (
	hotRounds  = []int{analystRounds - 3, analystRounds - 2, analystRounds - 1}
	coldRounds = []int{1, 2, 3, 4}
	windowSpan = [][2]int{{analystRounds - 3, analystRounds - 1}, {analystRounds - 2, analystRounds - 1}, {analystRounds - 3, analystRounds - 2}}
)

// queryMix draws a worker's op sequence from the seed.
func queryMix(f *fleet, seed uint64, worker, n int) []mixOp {
	r := fo.NewRand(derive(seed, 6, uint64(worker)))
	pick := func(lambda int) probe {
		pool := f.pool[lambda-1]
		return pool[r.IntN(len(pool))]
	}
	ops := make([]mixOp, n)
	for i := range ops {
		x := r.IntN(1000)
		kind := kindCurrent
		for _, s := range mixShares {
			if x < s.perMille {
				kind = s.kind
				break
			}
			x -= s.perMille
		}
		op := mixOp{kind: kind, pr: pick(1 + r.IntN(4))}
		switch kind {
		case kindBatch:
			for j := 0; j < batchQueries; j++ {
				op.batch = append(op.batch, pick(1+j%4))
			}
		case kindHot:
			op.params.round = hotRounds[r.IntN(len(hotRounds))]
		case kindCold:
			op.params.round = coldRounds[r.IntN(len(coldRounds))]
		case kindWindow:
			w := windowSpan[r.IntN(len(windowSpan))]
			op.params.lo, op.params.hi = w[0], w[1]
		}
		op.params.where = op.pr.where
		ops[i] = op
	}
	return ops
}

func runAnalyst(env *runEnv) (*outcome, error) {
	devices := analystFrames * framesPerBatch
	// The last round is the trickle round: its reports go out in small
	// frames, spread evenly over the measured phase.
	spec := fleetSpec{seed: env.seed, devices: devices, rounds: analystRounds + 1, frames: true, poolPer: 64}
	hc := newHTTPClient()
	var (
		f       *fleet
		node    *proc
		trickle [][]byte
	)
	setupS, setupRaw, err := repeatSetup(env, func() error {
		var err error
		if f, err = newFleet(spec); err != nil {
			return err
		}
		tr := f.rounds[analystRounds]
		trickle = trickle[:0]
		for lo := 0; lo < len(tr.ids); lo += trickleFrameSize {
			hi := min(lo+trickleFrameSize, len(tr.ids))
			frame, err := wire.EncodeFrame(batchOf(tr.ids[lo:hi], tr.reports[lo:hi]))
			if err != nil {
				return err
			}
			trickle = append(trickle, frame)
		}
		return nil
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
		wireB           int64
		wireN           int
		answers         []answered // the probe gate's, for query_mae
		restored        []answered // first answers after each restart
		allAcks, allQs  []float64
		lags            []float64
		queriesAnswered int
	)

	// Preload: rounds 1..analystRounds, closed-loop frames, each closed.
	// The end-to-end ingest metrics come from these rounds.
	for r := 1; r <= analystRounds; r++ {
		ri := f.rounds[r-1]
		var acks samples
		from := time.Now()
		wall := postFrames(ctx, cl, ri.frames, wire.DispositionAccepted, &acks, &t, g)
		w.add("ingest_rps", float64(len(ri.ids))/wall.Seconds(), from)
		w.addLatency("ingest_ack", acks.values(), from)
		allAcks = append(allAcks, acks.values()...)
		st, err := status(ctx, hc, node.base())
		if err != nil {
			return nil, err
		}
		checkRound(g, st, r, len(ri.ids), r*len(ri.ids))
		wireB += wireBytes(st)
		wireN += st.Reports
		n, err := closeRound(ctx, cl, w)
		t.record(1, err == nil && n == len(ri.ids))
		if err != nil || n != len(ri.ids) {
			g.failf("round %d finalize: %d reports, want %d (%v)", r, n, len(ri.ids), err)
		}
		next, err := cl.NextRoundTo(ctx, r+1)
		t.record(1, err == nil && next == r+1)
		if err != nil || next != r+1 {
			g.failf("next round after %d: got %d (%v)", r, next, err)
		}
	}

	// Measured phase: a fixed number of query-mix requests on each of the two
	// connections (fixed work, so server CPU does not depend on how fast the
	// host ran), and the whole trickle round at a fixed rate over the first
	// half of --seconds, well inside the query mix on the reference machine,
	// riding the first connection.
	interval := time.Duration(env.seconds) * time.Second / 2 / time.Duration(len(trickle))
	perWorker := mixRequestsPerSecond * env.seconds
	type record struct {
		at time.Duration // completion, from phase start
		ms float64
		n  int // queries answered
	}
	type ack struct {
		at  time.Duration
		ms  float64
		lag float64
	}
	var (
		mu      sync.Mutex
		records []record
		acks    []ack
		mixAns  []answered
		wg      sync.WaitGroup
	)
	start := time.Now()
	for wk := 0; wk < conns; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			ops := queryMix(f, env.seed, wk, mixPattern)
			var local []record
			var localAns []answered
			var localAcks []ack
			sent := 0
			for i := 0; i < perWorker || (wk == 0 && sent < len(trickle)); i++ {
				// The trickle: every frame due by now goes first. Its
				// acknowledgement is timed from the send; how late the
				// generator sent it is the lag.
				for wk == 0 && sent < len(trickle) && time.Since(start) >= time.Duration(sent)*interval {
					due := start.Add(time.Duration(sent) * interval)
					t0 := time.Now()
					n := wire.FrameReportCount(trickle[sent])
					resp, err := cl.ReportFrame(ctx, trickle[sent], n)
					ok := err == nil && resp.Accepted == n
					t.record(int64(n), ok)
					if !ok {
						g.failf("trickle frame %d: %s", sent, describeFrame(resp, err, wire.DispositionAccepted))
					}
					localAcks = append(localAcks, ack{at: time.Since(start), ms: ms(time.Since(t0)), lag: ms(t0.Sub(due))})
					sent++
				}
				if i >= perWorker {
					if sent < len(trickle) {
						time.Sleep(time.Until(start.Add(time.Duration(sent) * interval)))
					}
					continue
				}
				op := ops[i%len(ops)]
				t0 := time.Now()
				n, ans, err := runMixOp(ctx, hc, node.base(), op)
				d := time.Since(t0)
				if err != nil {
					t.record(1, false)
					g.failf("mix query %+v: %v", op.params, err)
					continue
				}
				t.record(int64(n), true)
				local = append(local, record{at: time.Since(start), ms: ms(d), n: n})
				if i < len(ops) {
					localAns = append(localAns, ans...)
				}
			}
			mu.Lock()
			records = append(records, local...)
			acks = append(acks, localAcks...)
			mixAns = append(mixAns, localAns...)
			mu.Unlock()
		}(wk)
	}
	wg.Wait()
	elapsed := time.Since(start)
	trickled := len(acks)
	trickleReports := 0
	for _, fr := range trickle[:trickled] {
		trickleReports += wire.FrameReportCount(fr)
	}

	// Window medians over the measured phase. A window's rate divides its
	// completions by the time between the last completion before it and its
	// own last completion.
	sort.Slice(records, func(i, j int) bool { return records[i].at < records[j].at })
	sort.Slice(acks, func(i, j int) bool { return acks[i].at < acks[j].at })
	var prevEnd time.Duration
	for lo := time.Duration(0); lo < elapsed; lo += mixWindow {
		hi := lo + mixWindow
		var qs []float64
		answeredN := 0
		end := prevEnd
		for _, rec := range records {
			if rec.at >= lo && rec.at < hi {
				qs = append(qs, rec.ms)
				answeredN += rec.n
				end = rec.at
			}
		}
		if end > prevEnd && len(qs) > 0 {
			from, to := start.Add(prevEnd), start.Add(end)
			w.addSpan("query_p50", median(qs), from, to)
			w.addSpan("query_p95", percentile(qs, 95), from, to)
			w.addSpan("query_qps", float64(answeredN)/(end-prevEnd).Seconds(), from, to)
		}
		prevEnd = end
	}
	for _, rec := range records {
		allQs = append(allQs, rec.ms)
		queriesAnswered += rec.n
	}
	var trickleAcks []float64
	for _, a := range acks {
		trickleAcks = append(trickleAcks, a.ms)
		lags = append(lags, a.lag)
	}
	tr := f.rounds[analystRounds]
	trReps := tr.reports[:trickleReports]
	st, err := status(ctx, hc, node.base())
	if err != nil {
		return nil, err
	}
	if st.Reports != trickleReports || st.Round != analystRounds+1 {
		g.failf("trickle round: status reports %d round %d, want %d reports in round %d",
			st.Reports, st.Round, trickleReports, analystRounds+1)
	}
	wireB += wireBytes(st)
	wireN += st.Reports

	// Recovery over the trickle round's WAL tail; the first answered query
	// comes from the archive-restored served round.
	p0 := f.probes[0]
	for c := 0; c < analystCycles; c++ {
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
		restored = append(restored, answered{round: analystRounds, q: p0.q, estimate: resp.Estimate})
		st, err := status(ctx, hc, node.base())
		ok := err == nil && resp.Round == analystRounds && st.Reports == trickleReports && st.WALReplayed == trickleReports
		t.record(1, ok)
		if !ok {
			g.failf("restart %d: answered round %d, status reports %d replayed %d (want %d): %v",
				c+1, resp.Round, st.Reports, st.WALReplayed, trickleReports, err)
		}
	}
	n, err := closeRound(ctx, cl, w)
	t.record(1, err == nil && n == trickleReports)
	if err != nil || n != trickleReports {
		g.failf("trickle round finalize: %d reports, want %d (%v)", n, trickleReports, err)
	}

	// Probe gate: every round, archived or served, answers the probe set.
	for r := 1; r <= analystRounds+1; r++ {
		wheres := make([]string, len(f.probes))
		for i, p := range f.probes {
			wheres[i] = p.where
		}
		target := r
		if r == analystRounds+1 {
			target = 0
		}
		resp, err := postQueryBatch(ctx, hc, node.base(), wheres, target)
		ok := err == nil && resp.Round == r && len(resp.Results) == len(wheres)
		t.record(int64(len(wheres)), ok)
		if !ok {
			g.failf("probe batch on round %d: answered round %d, %d results: %v", r, resp.Round, len(resp.Results), err)
			continue
		}
		for i, item := range resp.Results {
			if item.Error != "" {
				g.failf("probe %q on round %d: %s", wheres[i], r, item.Error)
				continue
			}
			answers = append(answers, answered{round: r, q: f.probes[i].q, estimate: item.Estimate})
		}
	}

	cpuS, cpuRaw, rssMB := endMeasurement()
	ref := newReference(f)
	if _, err := ref.engine(analystRounds+1, trReps); err != nil {
		return nil, err
	}
	verifyAnswers(g, ref, answers)
	verifyAnswers(g, ref, restored)
	verifyAnswers(g, ref, mixAns)

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
		"loadgen.lag_p99_ms":     percentile(lags, 99),
	}
	out.stamp = map[string]any{
		"topology":            "standalone felipserver, -wal and -archive",
		"loop":                "closed query mix + open-loop trickle",
		"connections":         conns,
		"preload_rounds":      analystRounds,
		"reports_per_round":   devices,
		"trickle_rate_rps":    float64(trickleFrameSize) / interval.Seconds(),
		"restart_cycles":      analystCycles,
		"query_requests":      len(allQs),
		"queries_answered":    queriesAnswered,
		"trickle_frames_sent": trickled,
		// The trickle shares a saturated 2-core host with the query mix, so
		// its tail is scheduling delay; it is reported here, not gated.
		"trickle_ack_p50_ms": median(trickleAcks),
		"trickle_ack_p95_ms": percentile(trickleAcks, 95),
	}
	return out, nil
}

// runMixOp performs one query-mix request and returns how many queries it
// answered and the answers to verify.
func runMixOp(ctx context.Context, hc *http.Client, base string, op mixOp) (int, []answered, error) {
	if op.kind == kindBatch {
		wheres := make([]string, len(op.batch))
		for i, p := range op.batch {
			wheres[i] = p.where
		}
		resp, err := postQueryBatch(ctx, hc, base, wheres, 0)
		if err != nil {
			return 0, nil, err
		}
		ans := make([]answered, 0, len(resp.Results))
		for i, item := range resp.Results {
			if item.Error != "" {
				return 0, nil, fmt.Errorf("batch item %q: %s", wheres[i], item.Error)
			}
			ans = append(ans, answered{round: resp.Round, q: op.batch[i].q, estimate: item.Estimate})
		}
		return len(ans), ans, nil
	}
	resp, err := getQuery(ctx, hc, base, op.params)
	if err != nil {
		return 0, nil, err
	}
	a := answered{round: resp.Round, q: op.pr.q, estimate: resp.Estimate}
	if op.kind == kindWindow {
		a.round, a.lo, a.hi = 0, op.params.lo, op.params.hi
	}
	return 1, []answered{a}, nil
}
