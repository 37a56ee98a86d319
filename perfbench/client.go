package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"felip/internal/httpapi"
	"felip/internal/wire"
)

// This file is the load process's side of the wire: the HTTP client shared by
// every workload, and the closed-loop helpers that post frames and queries
// through it while recording latencies and outcomes.

// conns is the load process's connection budget: one per CPU of the
// reference machine (nproc = 2), never more in flight.
const conns = 2

// newHTTPClient keeps at most conns connections per server.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}, Timeout: 60 * time.Second}
}

// tally counts operations and their correct outcomes. success_rate is
// correct / attempted; an expected outcome (a verbatim resend answered
// "duplicate") is correct.
type tally struct {
	attempted atomic.Int64
	correct   atomic.Int64
}

func (t *tally) record(n int64, ok bool) {
	t.attempted.Add(n)
	if ok {
		t.correct.Add(n)
	}
}

// postFrames posts frames closed-loop over conns connections, each sending
// its next frame when the previous one is acknowledged. want is the
// disposition every report of every frame must get. Returns the wall time.
func postFrames(ctx context.Context, cl *httpapi.Client, frames [][]byte, want int, lat *samples, t *tally, g *gate) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(frames) {
					return
				}
				n := wire.FrameReportCount(frames[i])
				t0 := time.Now()
				resp, err := cl.ReportFrame(ctx, frames[i], n)
				d := time.Since(t0)
				ok := err == nil && frameAll(resp, want, n)
				if lat != nil && err == nil {
					lat.add(d)
				}
				t.record(int64(n), ok)
				if !ok {
					g.failf("frame %d: %s", i, describeFrame(resp, err, want))
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func frameAll(resp wire.BatchReportResponse, want, n int) bool {
	switch want {
	case wire.DispositionAccepted:
		return resp.Accepted == n
	case wire.DispositionDuplicate:
		return resp.Duplicate == n
	}
	return false
}

func describeFrame(resp wire.BatchReportResponse, err error, want int) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("want every disposition %d, got accepted=%d duplicate=%d conflict=%d rejected=%d",
		want, resp.Accepted, resp.Duplicate, resp.Conflict, resp.Rejected)
}

// queryParams is one GET /v1/query: a WHERE expression, optionally targeting
// an archived round or a rounds=lo..hi window.
type queryParams struct {
	where  string
	round  int
	lo, hi int
}

func (p queryParams) encode() string {
	v := url.Values{"where": {p.where}}
	if p.round > 0 {
		v.Set("round", strconv.Itoa(p.round))
	}
	if p.lo > 0 {
		v.Set("rounds", strconv.Itoa(p.lo)+".."+strconv.Itoa(p.hi))
	}
	return v.Encode()
}

// getQuery performs one analyst GET and decodes the answer.
func getQuery(ctx context.Context, hc *http.Client, base string, p queryParams) (wire.QueryResponse, error) {
	var resp wire.QueryResponse
	err := doJSON(ctx, hc, http.MethodGet, base+"/v1/query?"+p.encode(), nil, &resp)
	return resp, err
}

// postQueryBatch answers many expressions in one POST /v1/query.
func postQueryBatch(ctx context.Context, hc *http.Client, base string, wheres []string, round int) (wire.BatchQueryResponse, error) {
	body, err := json.Marshal(wire.BatchQueryRequest{Queries: wheres, Round: round})
	if err != nil {
		return wire.BatchQueryResponse{}, err
	}
	var resp wire.BatchQueryResponse
	err = doJSON(ctx, hc, http.MethodPost, base+"/v1/query", body, &resp)
	return resp, err
}

func doJSON(ctx context.Context, hc *http.Client, method, u string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, u, resp.Status, bytes.TrimSpace(payload))
	}
	return json.Unmarshal(payload, out)
}

// sweep is one probe sweep's outcome: the first answer to each probe (for
// verification) and the sweep's latencies and wall time.
type sweep struct {
	answers []answered
	lat     []float64
	wall    time.Duration
}

// probeSweep answers jobs probe queries, cycling through the probes,
// closed-loop over conns connections, against the served round (round 0) or
// an archived one. The work is fixed, so the servers' CPU time does not
// depend on how fast the host ran. Every repeat of a probe must return the
// first answer's exact estimate.
func probeSweep(ctx context.Context, hc *http.Client, base string, probes []probe, jobs, round, wantRound int, t *tally, g *gate) sweep {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		lat   []float64
		first = make([]float64, len(probes))
		seen  = make([]bool, len(probes))
	)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []float64
			defer func() {
				mu.Lock()
				lat = append(lat, local...)
				mu.Unlock()
			}()
			for {
				i := int(next.Add(1) - 1)
				if i >= jobs {
					return
				}
				k := i % len(probes)
				t0 := time.Now()
				resp, err := getQuery(ctx, hc, base, queryParams{where: probes[k].where, round: round})
				d := time.Since(t0)
				ok := err == nil && resp.Round == wantRound
				if ok {
					local = append(local, ms(d))
					mu.Lock()
					if !seen[k] {
						seen[k], first[k] = true, resp.Estimate
					} else if !sameFloat(first[k], resp.Estimate) {
						ok = false
						err = fmt.Errorf("estimate %v differs from the same query's earlier %v", resp.Estimate, first[k])
					}
					mu.Unlock()
				}
				t.record(1, ok)
				if !ok {
					g.failf("probe %q on round %d: %v (answered round %d)", probes[k].where, wantRound, err, resp.Round)
				}
			}
		}()
	}
	wg.Wait()
	sw := sweep{lat: lat, wall: time.Since(start)}
	for k, pr := range probes {
		if seen[k] {
			sw.answers = append(sw.answers, answered{round: wantRound, q: pr.q, estimate: first[k]})
		}
	}
	return sw
}

// probeMAE is the mean absolute error of probe answers against the exact
// answers on the fleet's rows.
func probeMAE(f *fleet, answers []answered) float64 {
	truth := make(map[string]float64, len(f.probes))
	for _, p := range f.probes {
		truth[p.q.String()] = p.truth
	}
	var sum float64
	var n int
	for _, a := range answers {
		if want, ok := truth[a.q.String()]; ok && a.round > 0 {
			d := a.estimate - want
			if d < 0 {
				d = -d
			}
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// status fetches a node's /v1/status.
func status(ctx context.Context, hc *http.Client, base string) (httpapi.Status, error) {
	var st httpapi.Status
	err := doJSON(ctx, hc, http.MethodGet, base+"/v1/status", nil, &st)
	return st, err
}

func wireBytes(st httpapi.Status) int64 {
	var n int64
	for _, v := range st.WireBytesTotal {
		n += v
	}
	return n
}
