package main

import (
	"fmt"
	"math"
	"sync"

	"felip/internal/core"
	"felip/internal/query"
	"felip/internal/serve"
	"felip/internal/stream"
)

// This file is the correctness gate's reference side: every round a server
// closed is rebuilt in-process (core.Collector → serve.Engine) from the same
// generated reports, and the server's answers must match it float for float.

// reference lazily builds and caches one engine per round.
type reference struct {
	f       *fleet
	engines map[int]*serve.Engine
	sizes   map[int]int
}

func newReference(f *fleet) *reference {
	return &reference{f: f, engines: make(map[int]*serve.Engine), sizes: make(map[int]int)}
}

// engine builds round's engine from the given reports (nil = the whole
// generated round).
func (r *reference) engine(round int, reps []core.Report) (*serve.Engine, error) {
	if eng, ok := r.engines[round]; ok {
		return eng, nil
	}
	if reps == nil {
		reps = r.f.rounds[round-1].reports
	}
	col, err := core.NewCollector(r.f.schema, r.f.plan.N, r.f.plan.options())
	if err != nil {
		return nil, err
	}
	for _, rep := range reps {
		if err := col.Add(rep); err != nil {
			return nil, fmt.Errorf("reference round %d: %w", round, err)
		}
	}
	agg, err := col.Finalize()
	if err != nil {
		return nil, fmt.Errorf("reference round %d: %w", round, err)
	}
	eng, err := serve.NewEngine(agg)
	if err != nil {
		return nil, err
	}
	if err := eng.Warmup(); err != nil {
		return nil, err
	}
	r.engines[round] = eng
	r.sizes[round] = len(reps)
	return eng, nil
}

// answer is the reference estimate of q on round.
func (r *reference) answer(round int, q query.Query) (float64, error) {
	eng, err := r.engine(round, nil)
	if err != nil {
		return 0, err
	}
	return eng.Answer(q)
}

// window is the archive's population-weighted window answer over [lo, hi],
// combined in ascending round order exactly as archive.Store.AnswerRange does.
func (r *reference) window(q query.Query, lo, hi int) (float64, error) {
	var items []stream.Item
	for round := lo; round <= hi; round++ {
		eng, err := r.engine(round, nil)
		if err != nil {
			return 0, err
		}
		items = append(items, stream.Item{Weight: float64(r.sizes[round]), Answer: eng.Answer})
	}
	return stream.WeightedAnswer(q, items)
}

// gate collects correctness failures; a run with any failure reports no
// numbers. The load goroutines report into it concurrently.
type gate struct {
	mu       sync.Mutex
	failures []string
}

func (g *gate) failf(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.failures) < 20 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

func (g *gate) ok() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.failures) == 0
}

// sameFloat is float-for-float equality (NaN never matches).
func sameFloat(a, b float64) bool { return a == b && !math.IsNaN(a) }

// answered is one estimate the server returned, to be checked after the
// measured phase so verification never competes with the servers for CPU.
type answered struct {
	round    int // 0 with lo/hi set = window
	lo, hi   int
	q        query.Query
	estimate float64
}

// verifyAnswers checks every recorded answer against the reference.
func verifyAnswers(g *gate, ref *reference, answers []answered) {
	for _, a := range answers {
		var want float64
		var err error
		if a.round == 0 {
			want, err = ref.window(a.q, a.lo, a.hi)
		} else {
			want, err = ref.answer(a.round, a.q)
		}
		if err != nil {
			g.failf("reference answer for %v: %v", a.q, err)
			continue
		}
		if !sameFloat(want, a.estimate) {
			g.failf("round %d (window %d..%d) %v: server answered %v, in-process reference %v",
				a.round, a.lo, a.hi, a.q, a.estimate, want)
		}
	}
}
