package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"felip/internal/archive"
	"felip/internal/cluster"
	"felip/internal/core"
	"felip/internal/httpapi"
	"felip/internal/metrics"
	"felip/internal/query"
	"felip/internal/reportlog"
	"felip/internal/serve"
	"felip/internal/wire"
)

// This file is the traced run. It replays the run's generated inputs in
// process through each module's public functions, with spans recorded in the
// benchmark's own code around those calls, and reads the counters the
// program exports (the metrics snapshot, /v1/status, and a counting
// reportlog.File). Untraced and traced replays alternate; the traced passes'
// extra wall time is the tracing overhead.

// replayBudget is the wall time the alternating replay passes aim to cover,
// so that a small workload's overhead is not one noisy sample.
const replayBudget = 8 * time.Second

// span is one timed call. child is the summed duration of its direct
// children, so self time is dur − child.
type span struct {
	name   string
	start  time.Duration
	dur    time.Duration
	child  time.Duration
	parent int32
	n      int // work items the call covered (reports, records)
}

// tracer records nested spans from a single goroutine. A disabled tracer
// records nothing, so the untraced pass runs the identical replay code.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int32
}

func (t *tracer) begin(name string, n int) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, n: n})
	id := int32(len(t.spans) - 1)
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.dur = time.Since(t.t0) - s.start
	t.stack = t.stack[:len(t.stack)-1]
	if s.parent >= 0 {
		t.spans[s.parent].child += s.dur
	}
}

// byName returns every span duration of name (ns) and the items they covered.
func (t *tracer) byName(name string) (durs []float64, items int) {
	for _, s := range t.spans {
		if s.name == name {
			durs = append(durs, float64(s.dur.Nanoseconds()))
			items += s.n
		}
	}
	return durs, items
}

// perItem is the summed duration of name's spans per covered item, in ns.
func (t *tracer) perItem(name string) float64 {
	durs, items := t.byName(name)
	var sum float64
	for _, d := range durs {
		sum += d
	}
	return sum / float64(max(items, 1))
}

// selfMS sums each layer's self time in ms; a layer is a span name's first
// dotted component.
func (t *tracer) selfMS() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.name, ".")
		out[layer] += float64((s.dur - s.child).Nanoseconds()) / 1e6
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if err := enc.Encode(map[string]any{"id": i, "name": s.name, "start_ns": s.start.Nanoseconds(),
			"dur_ns": s.dur.Nanoseconds(), "self_ns": (s.dur - s.child).Nanoseconds(), "parent": s.parent, "items": s.n}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countingFile is the reportlog.File the replay's servers write through:
// it counts writes, bytes and syncs, and records each as a child span of
// whatever call is in flight.
type countingFile struct {
	*os.File
	tr                  *tracer
	write               string // span name for writes
	writes, syncs, byts int
}

func (c *countingFile) Write(p []byte) (int, error) {
	sp := c.tr.begin(c.write, 1)
	n, err := c.File.Write(p)
	c.tr.end(sp)
	c.writes++
	c.byts += n
	return n, err
}

func (c *countingFile) Sync() error {
	sp := c.tr.begin("reportlog.sync", 1)
	err := c.File.Sync()
	c.tr.end(sp)
	c.syncs++
	return err
}

// replayNode is an in-process durable node whose WAL segments go through
// counting files.
type replayNode struct {
	srv   *httpapi.Server
	store *archive.Store
	h     http.Handler
	files []*countingFile
}

func newReplayNode(f *fleet, tr *tracer, dir, writeSpan string, withArchive bool) (*replayNode, error) {
	srv, err := httpapi.NewServer(f.schema, f.plan.N, f.plan.options())
	if err != nil {
		return nil, err
	}
	srv.SetLogger(nil)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := &replayNode{srv: srv}
	segs := reportlog.NewSegments(filepath.Join(dir, "node.wal"))
	open := func(round int) (*reportlog.Log, error) {
		fh, err := os.OpenFile(segs.Path(round), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		cf := &countingFile{File: fh, tr: tr, write: writeSpan}
		l, recs, err := reportlog.OpenFile(cf)
		if err != nil {
			fh.Close()
			return nil, err
		}
		if len(recs) > 0 {
			l.Close()
			return nil, fmt.Errorf("segment %s is not empty", segs.Path(round))
		}
		n.files = append(n.files, cf)
		return l, nil
	}
	if withArchive {
		n.store, err = archive.Open(filepath.Join(dir, "node.archive"), archive.Options{PlanFingerprint: srv.PlanFingerprint()})
		if err != nil {
			return nil, err
		}
		if err := srv.UseArchive(n.store, segs); err != nil {
			return nil, err
		}
	}
	l, err := open(1)
	if err != nil {
		return nil, err
	}
	if err := srv.UseWAL(l, nil); err != nil {
		return nil, err
	}
	srv.SetWALFactory(open)
	n.h = srv.Handler()
	return n, nil
}

func (n *replayNode) call(method, path string, body []byte) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(method, path, strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	n.h.ServeHTTP(rec, req)
	if rec.Code >= 300 {
		return rec, fmt.Errorf("%s %s: %d %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec, nil
}

func (n *replayNode) counts() (writes, syncs, byts int) {
	for _, cf := range n.files {
		writes += cf.writes
		syncs += cf.syncs
		byts += cf.byts
	}
	return
}

// roundFrames returns a round's 512-report frames, encoding them if the
// workload did not.
func roundFrames(ri roundInput) ([][]byte, error) {
	if ri.frames != nil {
		return ri.frames, nil
	}
	var frames [][]byte
	for lo := 0; lo < len(ri.ids); lo += framesPerBatch {
		hi := min(lo+framesPerBatch, len(ri.ids))
		fr, err := wire.EncodeFrame(batchOf(ri.ids[lo:hi], ri.reports[lo:hi]))
		if err != nil {
			return nil, err
		}
		frames = append(frames, fr)
	}
	return frames, nil
}

// delta is the change of exported instruments across fn.
func delta(fn func() error) (map[string]int64, error) {
	before := metrics.Snapshot()
	err := fn()
	after := metrics.Snapshot()
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d, err
}

// replay runs every layer once over the fleet and returns the measurements
// that come from counters rather than spans.
func replay(env *runEnv, f *fleet, tr *tracer, dir string) (map[string]float64, error) {
	c := make(map[string]float64)
	r1 := f.rounds[0]
	n1 := len(r1.ids)

	// core: device perturbation, the generator's own chunked streams.
	for ch := 0; ch*perturbChunk < n1; ch++ {
		device, err := core.NewClient(f.specs, f.plan.Eps, derive(env.seed, 4, 1, uint64(ch)))
		if err != nil {
			return nil, err
		}
		for dev := ch * perturbChunk; dev < min((ch+1)*perturbChunk, n1); dev++ {
			row := dev
			sp := tr.begin("core.perturb", 1)
			rep, err := device.Perturb(httpapi.DeriveGroup(r1.ids[dev], len(f.specs)),
				func(attr int) int { return f.rows.Value(row, attr) })
			tr.end(sp)
			if err != nil || rep != r1.reports[dev] {
				return nil, fmt.Errorf("perturb replay of %s diverged from the generator", r1.ids[dev])
			}
		}
	}

	// wire: frame encode and decode, JSON report decode.
	var frames1 [][]byte
	for lo := 0; lo < n1; lo += framesPerBatch {
		hi := min(lo+framesPerBatch, n1)
		batch := batchOf(r1.ids[lo:hi], r1.reports[lo:hi])
		sp := tr.begin("wire.encode", len(batch))
		fr, err := wire.EncodeFrame(batch)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		frames1 = append(frames1, fr)
	}
	var rd wire.FrameReader
	for _, fr := range frames1 {
		sp := tr.begin("wire.decode", wire.FrameReportCount(fr))
		if _, err := rd.Reset(fr); err != nil {
			return nil, err
		}
		for rd.Next() {
		}
		tr.end(sp)
		if rd.Err() != nil {
			return nil, rd.Err()
		}
	}
	jsonN := min(n1, 8192)
	bodies := make([][]byte, jsonN)
	for i := range bodies {
		b, err := json.Marshal(wire.NewReportMessage(r1.ids[i], r1.reports[i]))
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	for _, b := range bodies {
		sp := tr.begin("wire.json_decode", 1)
		var m wire.ReportMessage
		err := json.Unmarshal(b, &m)
		if err == nil {
			err = m.Validate()
		}
		if err == nil {
			_, err = m.Report()
		}
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}

	// httpapi + reportlog + archive + fo: every round through IngestFrame on
	// a durable node, closed and advanced over its HTTP handler.
	node, err := newReplayNode(f, tr, filepath.Join(dir, "frames"), "reportlog.append_batch", true)
	if err != nil {
		return nil, err
	}
	var firstNS, lastNS float64
	var folds, foldNS, estNS, archNS, archN int64
	ingested := 0
	for r, ri := range f.rounds {
		frames, err := roundFrames(ri)
		if err != nil {
			return nil, err
		}
		var m0, m1 runtime.MemStats
		if r == 0 {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		for _, fr := range frames {
			cnt := wire.FrameReportCount(fr)
			sp := tr.begin("httpapi.ingest_frame", cnt)
			resp, _, err := node.srv.IngestFrame(fr)
			tr.end(sp)
			if err != nil || resp.Accepted != cnt {
				return nil, fmt.Errorf("replay round %d frame: accepted %d of %d (%v)", r+1, resp.Accepted, cnt, err)
			}
		}
		perReport := float64(time.Since(t0).Nanoseconds()) / float64(len(ri.ids))
		if r == 0 {
			runtime.ReadMemStats(&m1)
			c["httpapi.allocs_per_report"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(ri.ids))
			firstNS = perReport
		}
		lastNS = perReport
		ingested += len(ri.ids)
		d, err := delta(func() error {
			sp := tr.begin("httpapi.finalize", 1)
			_, err := node.call(http.MethodPost, "/v1/finalize", nil)
			tr.end(sp)
			return err
		})
		if err != nil {
			return nil, err
		}
		folds += d["fo.olh.fold_reports"]
		foldNS += d["fo.olh.fold.ns"]
		estNS += d["fo.olh.estimate.ns"]
		archNS += d["archive.write.ns"]
		archN += d["archive.write.count"]
		if r < len(f.rounds)-1 {
			if _, err := node.call(http.MethodPost, "/v1/nextround", []byte(fmt.Sprintf(`{"round":%d}`, r+2))); err != nil {
				return nil, err
			}
		}
	}
	rounds := float64(len(f.rounds))
	c["httpapi.ingest_cost_ratio_last_first_round"] = lastNS / firstNS
	c["fo.olh_fold_ns_per_report"] = float64(foldNS) / float64(max(folds, 1))
	c["fo.estimate_ms"] = float64(estNS) / 1e6 / rounds
	c["archive.write_ms"] = float64(archNS) / 1e6 / float64(max(archN, 1))
	c["archive.snapshot_bytes"] = float64(metrics.Snapshot()["archive.snapshot_bytes"]) / float64(max(archN, 1))
	rec, err := node.call(http.MethodGet, "/v1/status", nil)
	if err != nil {
		return nil, err
	}
	var st httpapi.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return nil, err
	}
	c["httpapi.dedup_entries"] = float64(st.DedupEntries)
	_, syncs, byts := node.counts()
	c["reportlog.syncs_per_report"] = float64(syncs) / float64(ingested)
	c["reportlog.bytes_per_report"] = float64(byts) / float64(ingested)

	// archive: cold opens, a hot/cold access pattern against the LRU (a hit
	// returns the very engine the previous access got), window answers.
	archived := node.store.Rounds()
	for _, r := range archived[:min(4, len(archived))] {
		sp := tr.begin("archive.engine_open", 1)
		_, err := node.store.Engine(r)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	hot := archived[len(archived)-3:]
	cold := archived[:4]
	last := make(map[int]*serve.Engine)
	hits, accesses := 0, 0
	rng := derive(env.seed, 7)
	for i := 0; i < 1000; i++ {
		rng = mix64(rng)
		r := hot[rng%uint64(len(hot))]
		if rng%1000 < 72 { // the analyst mix's cold share among round-targeted reads
			r = cold[(rng>>20)%uint64(len(cold))]
		}
		eng, err := node.store.Engine(r)
		if err != nil {
			return nil, err
		}
		if last[r] == eng {
			hits++
		}
		last[r] = eng
		accesses++
	}
	c["archive.engine_cache_hit_ratio"] = float64(hits) / float64(accesses)
	for i, p := range f.probes {
		lo := hot[i%2]
		sp := tr.begin("archive.answer_range", 1)
		_, err := node.store.AnswerRange(p.q, lo, hot[len(hot)-1])
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	if err := node.srv.Close(); err != nil {
		return nil, err
	}

	// httpapi JSON path: single reports through the handler, each append a
	// child span of its request.
	jnode, err := newReplayNode(f, tr, filepath.Join(dir, "json"), "reportlog.append", false)
	if err != nil {
		return nil, err
	}
	for _, b := range bodies {
		sp := tr.begin("httpapi.report", 1)
		_, err := jnode.call(http.MethodPost, "/v1/report", b)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	if env.workload == "json-cluster" {
		_, syncs, byts := jnode.counts()
		c["reportlog.syncs_per_report"] = float64(syncs) / float64(jsonN)
		c["reportlog.bytes_per_report"] = float64(byts) / float64(jsonN)
	}
	if err := jnode.srv.Close(); err != nil {
		return nil, err
	}

	// httpapi over real loopback HTTP: the per-frame cost above IngestFrame.
	hnode, err := newReplayNode(f, &tracer{}, filepath.Join(dir, "http"), "reportlog.append_batch", false)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(hnode.h)
	hcl := httpapi.Dial(ts.URL, ts.Client())
	var httpNS float64
	for _, fr := range frames1 {
		t0 := time.Now()
		cnt := wire.FrameReportCount(fr)
		resp, err := hcl.ReportFrame(context.Background(), fr, cnt)
		httpNS += float64(time.Since(t0).Nanoseconds())
		if err != nil || resp.Accepted != cnt {
			ts.Close()
			return nil, fmt.Errorf("loopback frame: accepted %d of %d (%v)", resp.Accepted, cnt, err)
		}
	}
	ts.Close()
	if err := hnode.srv.Close(); err != nil {
		return nil, err
	}
	direct := 0.0
	for _, s := range tr.spans {
		if s.name == "httpapi.ingest_frame" && direct < float64(len(frames1)) {
			direct++
			httpNS -= float64(s.dur.Nanoseconds())
		}
	}
	c["httpapi.http_overhead_ns_per_frame"] = httpNS / float64(len(frames1))

	// reportlog replay: one round's records read back by reportlog.Open.
	walPath := filepath.Join(dir, "replay.wal")
	l, _, err := reportlog.Open(walPath)
	if err != nil {
		return nil, err
	}
	recs := make([]reportlog.Record, n1)
	for i, rep := range r1.reports {
		recs[i] = reportlog.ReportRecord(r1.ids[i], rep.Group, wire.ProtoName(rep.Proto), rep.Value, rep.Seed)
	}
	if err := l.AppendBatch(recs); err != nil {
		return nil, err
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	sp := tr.begin("reportlog.replay", n1)
	l, got, err := reportlog.Open(walPath)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	l.Close()
	if len(got) != n1 {
		return nil, fmt.Errorf("reportlog replay read %d of %d records", len(got), n1)
	}

	// core + serve: the reference collector, its finalize, the engine.
	col, err := core.NewCollector(f.schema, f.plan.N, f.plan.options())
	if err != nil {
		return nil, err
	}
	for _, rep := range r1.reports {
		sp := tr.begin("core.check_add", 1)
		err := col.Check(rep)
		if err == nil {
			err = col.Add(rep)
		}
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp = tr.begin("core.finalize", 1)
	agg, err := col.Finalize()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("serve.engine_build", 1)
	eng, err := serve.NewEngine(agg)
	if err == nil {
		err = eng.Warmup()
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	part, err := core.NewCollector(f.schema, f.plan.N, f.plan.options())
	if err != nil {
		return nil, err
	}
	for _, rep := range r1.reports {
		if err := part.Add(rep); err != nil {
			return nil, err
		}
	}
	part.Seal()
	sp = tr.begin("core.export_partials", 1)
	_, err = part.ExportPartials()
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	pool := f.pool
	if len(pool[0]) == 0 {
		for l := range pool {
			pool[l] = f.probes[l*probesPerLambda : (l+1)*probesPerLambda]
		}
	}
	d, err := delta(func() error {
		for rep := 0; rep < 4; rep++ {
			for l, qs := range pool {
				for _, p := range qs {
					sp := tr.begin(fmt.Sprintf("serve.answer.l%d", l+1), 1)
					_, err := eng.Answer(p.q)
					tr.end(sp)
					if err != nil {
						return err
					}
				}
			}
		}
		for k := 0; k < 64; k++ {
			qs := make([]query.Query, batchQueries)
			for j := range qs {
				qs[j] = pool[j%4][(k+j)%len(pool[j%4])].q
			}
			sp := tr.begin("serve.answer_batch", 1)
			eng.AnswerBatch(qs)
			tr.end(sp)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	hitN, missN := d["serve.matrix_cache.hit"], d["serve.matrix_cache.miss"]
	c["serve.matrix_cache_hit_ratio"] = float64(hitN) / float64(max(hitN+missN, 1))
	for _, qs := range pool {
		for _, p := range qs {
			sp := tr.begin("query.parse", 1)
			_, err := query.Parse(p.where, f.schema)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}

	// cluster: routing, and a two-shard round closed by a coordinator over
	// loopback HTTP.
	names := []string{cluster.StaticShardName(0), cluster.StaticShardName(1)}
	parts := make([][]int, 2)
	for i, id := range r1.ids {
		sp := tr.begin("cluster.route", 1)
		k := cluster.RendezvousFor(id, names)
		tr.end(sp)
		parts[k] = append(parts[k], i)
	}
	var bases []string
	var shardHandlers []http.Handler
	for k := range parts {
		srv, err := httpapi.NewServer(f.schema, f.plan.N, f.plan.options())
		if err != nil {
			return nil, err
		}
		srv.SetLogger(nil)
		srv.SetShardID(names[k])
		for lo := 0; lo < len(parts[k]); lo += framesPerBatch {
			var batch []wire.BatchReport
			for _, i := range parts[k][lo:min(lo+framesPerBatch, len(parts[k]))] {
				batch = append(batch, wire.BatchReport{ID: r1.ids[i], Report: r1.reports[i]})
			}
			fr, err := wire.EncodeFrame(batch)
			if err != nil {
				return nil, err
			}
			if resp, _, err := srv.IngestFrame(fr); err != nil || resp.Accepted != len(batch) {
				return nil, fmt.Errorf("shard %d frame: accepted %d of %d (%v)", k, resp.Accepted, len(batch), err)
			}
		}
		h := srv.Handler()
		shardHandlers = append(shardHandlers, h)
		ts := httptest.NewServer(h)
		defer ts.Close()
		bases = append(bases, ts.URL)
	}
	coord, err := cluster.New(cluster.Config{Schema: f.schema, N: f.plan.N, Opts: f.plan.options(), Shards: bases,
		Retry: httpapi.RetryPolicy{MaxAttempts: 2, Timeout: 30 * time.Second}, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	sp = tr.begin("cluster.finalize_round", 1)
	merged, err := coord.FinalizeRound(context.Background())
	tr.end(sp)
	if err != nil || merged != n1 {
		return nil, fmt.Errorf("cluster finalize merged %d of %d (%v)", merged, n1, err)
	}
	stateBytes := 0
	for _, h := range shardHandlers {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/state", nil))
		stateBytes += rec.Body.Len()
	}
	c["cluster.shard_state_bytes"] = float64(stateBytes)
	return c, nil
}

// traceReplay produces a traced run's per-layer metrics.
func traceReplay(env *runEnv, out *outcome) (map[string]metricValue, error) {
	dir := filepath.Join(env.state, "replay")
	// Untraced and traced passes alternate, in pairs whose order flips, until
	// the pairs cover replayBudget of wall time; the overhead is the median
	// pair's traced-over-untraced excess. The first traced pass's spans are
	// the ones reported.
	var (
		tr        *tracer
		counts    map[string]float64
		overheads []float64
		spent     time.Duration
	)
	for pair := 0; pair < 12 && (pair < 2 || spent < replayBudget); pair++ {
		var walls [2]time.Duration // untraced, traced
		for i := 0; i < 2; i++ {
			traced := (i == 1) != (pair%2 == 1)
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			runtime.GC()
			ptr := &tracer{on: traced, t0: time.Now()}
			t0 := time.Now()
			c, err := replay(env, out.fleet, ptr, dir)
			if err != nil {
				return nil, err
			}
			d := time.Since(t0)
			spent += d
			if traced {
				walls[1] = d
				if tr == nil {
					tr, counts = ptr, c
				}
			} else {
				walls[0] = d
			}
		}
		overheads = append(overheads, 100*(walls[1].Seconds()-walls[0].Seconds())/walls[0].Seconds())
	}
	if err := tr.write(filepath.Join(env.state, "spans.jsonl")); err != nil {
		return nil, err
	}

	m := make(map[string]metricValue)
	set := func(name string, v float64) { m[name] = metricValue{Value: v, Unit: layerUnits[name]} }
	p50 := func(name string) float64 {
		durs, _ := tr.byName(name)
		return median(durs)
	}
	set("core.perturb_ns", tr.perItem("core.perturb"))
	set("core.check_add_ns", tr.perItem("core.check_add"))
	set("core.finalize_ms", p50("core.finalize")/1e6)
	set("core.export_partials_ms", p50("core.export_partials")/1e6)
	set("wire.encode_ns_per_report", tr.perItem("wire.encode"))
	set("wire.decode_ns_per_report", tr.perItem("wire.decode"))
	set("wire.json_decode_ns", tr.perItem("wire.json_decode"))
	set("httpapi.ingest_frame_ns_per_report", tr.perItem("httpapi.ingest_frame"))
	set("httpapi.report_ns", tr.perItem("httpapi.report"))
	durs, _ := tr.byName("reportlog.append_batch")
	var appendSum float64
	for _, d := range durs {
		appendSum += d
	}
	_, ingestItems := tr.byName("httpapi.ingest_frame")
	set("reportlog.append_batch_ns_per_record", appendSum/float64(max(ingestItems, 1)))
	set("reportlog.sync_us_p50", p50("reportlog.sync")/1e3)
	set("reportlog.append_ns", tr.perItem("reportlog.append"))
	set("reportlog.replay_ns_per_record", tr.perItem("reportlog.replay"))
	set("archive.engine_open_ms", p50("archive.engine_open")/1e6)
	set("archive.answer_range_us", p50("archive.answer_range")/1e3)
	set("serve.engine_build_ms", p50("serve.engine_build")/1e6)
	for l := 1; l <= 4; l++ {
		set(fmt.Sprintf("serve.answer_us_p50.l%d", l), p50(fmt.Sprintf("serve.answer.l%d", l))/1e3)
	}
	set("serve.answer_batch_us", p50("serve.answer_batch")/1e3)
	set("query.parse_us", tr.perItem("query.parse")/1e3)
	set("cluster.route_ns", tr.perItem("cluster.route"))
	set("cluster.finalize_round_ms", p50("cluster.finalize_round")/1e6)
	for k, v := range counts {
		set(k, v)
	}
	for layer, v := range tr.selfMS() {
		set(layer+".self_ms", v)
	}
	for k, v := range out.diag {
		if _, ok := layerUnits[k]; ok {
			set(k, v)
		}
	}
	for name := range ungatedUnits {
		set("diag."+name, out.metrics[name])
	}
	set("trace.overhead_pct", median(overheads))
	set("trace.spans", float64(len(tr.spans)))
	for name := range layerUnits {
		if _, ok := m[name]; !ok {
			return nil, fmt.Errorf("traced run measured no value for %s", name)
		}
	}
	return m, nil
}

// layerUnits names every per-layer metric with its unit; BENCHMARK.json
// declares the same names.
var layerUnits = map[string]string{
	"core.perturb_ns":                            "ns",
	"core.check_add_ns":                          "ns",
	"core.finalize_ms":                           "ms",
	"core.export_partials_ms":                    "ms",
	"core.self_ms":                               "ms",
	"fo.olh_fold_ns_per_report":                  "ns",
	"fo.estimate_ms":                             "ms",
	"wire.encode_ns_per_report":                  "ns",
	"wire.decode_ns_per_report":                  "ns",
	"wire.json_decode_ns":                        "ns",
	"wire.self_ms":                               "ms",
	"httpapi.ingest_frame_ns_per_report":         "ns",
	"httpapi.allocs_per_report":                  "count",
	"httpapi.http_overhead_ns_per_frame":         "ns",
	"httpapi.report_ns":                          "ns",
	"httpapi.dedup_entries":                      "count",
	"httpapi.ingest_cost_ratio_last_first_round": "ratio",
	"httpapi.self_ms":                            "ms",
	"reportlog.append_batch_ns_per_record":       "ns",
	"reportlog.sync_us_p50":                      "us",
	"reportlog.append_ns":                        "ns",
	"reportlog.syncs_per_report":                 "count",
	"reportlog.bytes_per_report":                 "bytes",
	"reportlog.replay_ns_per_record":             "ns",
	"reportlog.self_ms":                          "ms",
	"archive.write_ms":                           "ms",
	"archive.snapshot_bytes":                     "bytes",
	"archive.engine_open_ms":                     "ms",
	"archive.engine_cache_hit_ratio":             "ratio",
	"archive.answer_range_us":                    "us",
	"archive.self_ms":                            "ms",
	"serve.engine_build_ms":                      "ms",
	"serve.answer_us_p50.l1":                     "us",
	"serve.answer_us_p50.l2":                     "us",
	"serve.answer_us_p50.l3":                     "us",
	"serve.answer_us_p50.l4":                     "us",
	"serve.answer_batch_us":                      "us",
	"serve.matrix_cache_hit_ratio":               "ratio",
	"serve.self_ms":                              "ms",
	"query.parse_us":                             "us",
	"query.self_ms":                              "ms",
	"cluster.route_ns":                           "ns",
	"cluster.finalize_round_ms":                  "ms",
	"cluster.shard_state_bytes":                  "bytes",
	"cluster.self_ms":                            "ms",
	"loadgen.lag_p99_ms":                         "ms",
	"diag.ingest_ack_p99_ms":                     "ms",
	"diag.query_p99_ms":                          "ms",
	"diag.ingest_rps":                            "1/s",
	"diag.ingest_ack_p50_ms":                     "ms",
	"diag.ingest_ack_p95_ms":                     "ms",
	"diag.round_close_p50_ms":                    "ms",
	"diag.recover_s":                             "s",
	"diag.query_qps":                             "1/s",
	"diag.query_p50_ms":                          "ms",
	"diag.query_p95_ms":                          "ms",
	"trace.overhead_pct":                         "%",
	"trace.spans":                                "count",
}
