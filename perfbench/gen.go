package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/httpapi"
	"felip/internal/query"
	"felip/internal/wire"
)

// This file is the workload generator. Every input a run sends — the device
// fleet's private rows, each round's perturbed reports and frames, the probe
// and query-mix expressions — is a pure function of the workload seed and
// the sizes below. The servers receive only these generated inputs.

// framesPerBatch is the device batcher's size trigger: every frame carries
// this many reports, as httpapi.Batcher does by default.
const framesPerBatch = 512

// probesPerLambda is the probe set's size per query dimension λ = 1..4.
const probesPerLambda = 32

// perturbChunk is the number of devices that share one perturbation stream.
// Chunks are perturbed in parallel; fixing the chunking keeps the output
// independent of the number of workers.
const perturbChunk = 4096

// planConfig is the collection plan every server of a run is started with:
// felipserver's defaults (OHG, the 3+3 attribute mixed schema, selectivity
// 0.5) at ε = 1, planned for one round's population.
type planConfig struct {
	N    int
	Eps  float64
	Seed uint64
}

func (p planConfig) schema() *domain.Schema { return dataset.MixedSchema(3, 64, 3, 8) }

func (p planConfig) options() core.Options {
	return core.Options{Strategy: core.OHG, Epsilon: p.Eps, Selectivity: 0.5, Seed: p.Seed}
}

// serverArgs are the felipserver flags that reproduce the plan.
func (p planConfig) serverArgs() []string {
	return []string{"-seed", strconv.FormatUint(p.Seed, 10), "-n", strconv.Itoa(p.N),
		"-eps", strconv.FormatFloat(p.Eps, 'g', -1, 64)}
}

// roundInput is one collection round's traffic: every device's report under
// a per-(device, round) idempotency key, and the same reports packed into
// batcher-sized frames.
type roundInput struct {
	ids     []string
	reports []core.Report
	frames  [][]byte
}

// probe is a fixed query with its exact answer on the fleet's rows.
type probe struct {
	where string
	q     query.Query
	truth float64
}

// fleet is a run's generated input set.
type fleet struct {
	plan   planConfig
	schema *domain.Schema
	specs  []core.GridSpec
	rows   *dataset.Dataset
	rounds []roundInput
	probes []probe
	// pool holds extra queries per λ (index λ-1) for the analyst mix.
	pool [4][]probe
}

// fleetSpec sizes a fleet.
type fleetSpec struct {
	seed    uint64
	devices int
	rounds  int
	frames  bool // pack each round into frames
	poolPer int  // analyst query pool per λ (0 = none)
}

// mix64 is the splitmix64 finalizer, used to derive independent streams
// from the workload seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func derive(seed uint64, parts ...uint64) uint64 {
	h := mix64(seed)
	for _, p := range parts {
		h = mix64(h ^ p)
	}
	return h | 1 // zero means "random" to several constructors
}

// reportID is a device's idempotency key for one round.
func reportID(dev, round int) string {
	b := make([]byte, 0, 16)
	b = append(b, 'd')
	b = strconv.AppendInt(b, int64(dev), 10)
	b = append(b, '-', 'r')
	b = strconv.AppendInt(b, int64(round), 10)
	return string(b)
}

// newFleet generates a run's inputs. The plan (grid specs) is computed
// in-process exactly as felipserver computes it from the same flags.
func newFleet(spec fleetSpec) (*fleet, error) {
	plan := planConfig{N: spec.devices, Eps: 1, Seed: derive(spec.seed, 1)}
	schema := plan.schema()
	col, err := core.NewCollector(schema, plan.N, plan.options())
	if err != nil {
		return nil, err
	}
	f := &fleet{
		plan:   plan,
		schema: schema,
		specs:  col.Specs(),
		rows:   dataset.NewNormal().Generate(schema, spec.devices, derive(spec.seed, 2)),
		rounds: make([]roundInput, spec.rounds),
	}
	for r := range f.rounds {
		ri, err := f.perturbRound(spec.seed, r+1, spec.frames)
		if err != nil {
			return nil, err
		}
		f.rounds[r] = ri
	}
	gen, err := query.NewGenerator(schema, 0.5, derive(spec.seed, 3))
	if err != nil {
		return nil, err
	}
	for lambda := 1; lambda <= 4; lambda++ {
		qs, err := gen.GenerateMany(probesPerLambda, lambda)
		if err != nil {
			return nil, err
		}
		f.probes = append(f.probes, f.makeProbes(qs)...)
	}
	if spec.poolPer > 0 {
		for lambda := 1; lambda <= 4; lambda++ {
			qs, err := gen.GenerateMany(spec.poolPer, lambda)
			if err != nil {
				return nil, err
			}
			f.pool[lambda-1] = f.makeProbes(qs)
		}
	}
	return f, nil
}

func (f *fleet) makeProbes(qs []query.Query) []probe {
	cols := make([][]uint16, f.schema.Len())
	for a := range cols {
		cols[a] = f.rows.Col(a)
	}
	out := make([]probe, len(qs))
	for i, q := range qs {
		out[i] = probe{where: query.Compact(q, f.schema), q: q, truth: query.Evaluate(q, cols)}
	}
	return out
}

// perturbRound produces every device's report for one round: devices are
// split into fixed chunks, each chunk perturbed by its own client stream, so
// the output depends only on (seed, round).
func (f *fleet) perturbRound(seed uint64, round int, frames bool) (roundInput, error) {
	n := f.rows.N()
	ri := roundInput{ids: make([]string, n), reports: make([]core.Report, n)}
	chunks := (n + perturbChunk - 1) / perturbChunk
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     = make(chan int)
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				if err := f.perturbChunk(seed, round, c, &ri); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for c := 0; c < chunks; c++ {
		next <- c
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return ri, firstErr
	}
	if frames {
		for lo := 0; lo < n; lo += framesPerBatch {
			hi := min(lo+framesPerBatch, n)
			frame, err := wire.EncodeFrame(batchOf(ri.ids[lo:hi], ri.reports[lo:hi]))
			if err != nil {
				return ri, err
			}
			ri.frames = append(ri.frames, frame)
		}
	}
	return ri, nil
}

func (f *fleet) perturbChunk(seed uint64, round, c int, ri *roundInput) error {
	device, err := core.NewClient(f.specs, f.plan.Eps, derive(seed, 4, uint64(round), uint64(c)))
	if err != nil {
		return err
	}
	lo, hi := c*perturbChunk, min((c+1)*perturbChunk, f.rows.N())
	for dev := lo; dev < hi; dev++ {
		id := reportID(dev, round)
		row := dev
		rep, err := device.Perturb(httpapi.DeriveGroup(id, len(f.specs)),
			func(attr int) int { return f.rows.Value(row, attr) })
		if err != nil {
			return err
		}
		ri.ids[dev], ri.reports[dev] = id, rep
	}
	return nil
}

func batchOf(ids []string, reps []core.Report) []wire.BatchReport {
	out := make([]wire.BatchReport, len(ids))
	for i := range ids {
		out[i] = wire.BatchReport{ID: ids[i], Report: reps[i]}
	}
	return out
}

// digest is an order-independent 128-bit fingerprint of the fleet's report
// multiset (two independent sums of per-report hashes) plus the probes.
func (f *fleet) digest() string {
	var s1, s2 uint64
	var buf [8]byte
	for _, ri := range f.rounds {
		for i, id := range ri.ids {
			h := fnv.New64a()
			h.Write([]byte(id))
			rep := ri.reports[i]
			for _, v := range []uint64{uint64(rep.Group), uint64(rep.Proto), uint64(rep.Value), rep.Seed} {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
			x := h.Sum64()
			s1 += x
			s2 += mix64(x)
		}
	}
	h := fnv.New64a()
	for _, p := range f.probes {
		h.Write([]byte(p.where))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x%016x-%016x", s1, s2, h.Sum64())
}
