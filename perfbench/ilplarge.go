package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/portfolio"
	"mbsp/internal/wire"
	"mbsp/internal/workloads"
)

// ilpConfig is the library path's configuration: the default row cap,
// so the 3k+-row holistic models enter tree search, and a small node
// limit.
var ilpConfig = solverConfig{seed: 1, nodeLimit: 5, maxRows: 0, timeLimit: 2 * time.Minute}

// ilpModels are the fixed registry models of one pass.
var ilpModels = []struct {
	name string
	p    int
}{
	{"spmv_N7", 2},
	{"exp_N4_K2", 2},
}

const ilpSetupReps = 21

type ilpInput struct {
	name string
	g    *graph.DAG
	arch mbsp.Arch
}

// ilpInputs builds the pass's models from the tiny registry.
func ilpInputs() ([]ilpInput, error) {
	byName := map[string]*graph.DAG{}
	for _, in := range workloads.Tiny() {
		byName[in.Name] = in.DAG
	}
	var out []ilpInput
	for _, m := range ilpModels {
		g, ok := byName[m.name]
		if !ok {
			return nil, fmt.Errorf("registry has no %s", m.name)
		}
		out = append(out, ilpInput{m.name, g, mbsp.Arch{P: m.p, R: 3 * g.MinCache(), G: 1, L: 10}})
	}
	return out, nil
}

func ilpOptions() portfolio.Options {
	return portfolio.Options{
		Seed:             ilpConfig.seed,
		ILPNodeLimit:     ilpConfig.nodeLimit,
		MaxModelRows:     ilpConfig.maxRows,
		SchedulerTimeout: -1,
		ILPTimeLimit:     ilpConfig.timeLimit,
	}
}

// encodeResult renders a library result as the server would, without
// the cache stamp, so the same output checks apply.
func encodeResult(in ilpInput, res *portfolio.Result) ([]byte, error) {
	resp, err := wire.FromResult(in.g, in.arch, mbsp.Sync, res)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err = enc.Encode(resp)
	return b.Bytes(), err
}

func runILPLarge(e *env) (*outcome, error) {
	o := newOutcome()
	o.config["portfolio"] = ilpConfig.record()
	o.config["callers"] = 1
	var names []string
	for _, m := range ilpModels {
		names = append(names, fmt.Sprintf("%s P=%d", m.name, m.p))
	}
	o.config["models"] = names

	// Set-up: build the pass's models from the registry generators.
	var m e2e
	var ins []ilpInput
	for i := 0; i < ilpSetupReps; i++ {
		start := time.Now()
		next, err := ilpInputs()
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(start))
		ins = next
	}

	// solve runs one model and checks the result; every pass must
	// reproduce the first pass's bytes.
	first := make([][]byte, len(ins))
	checks := make([]*checked, len(ins))
	solve := func(i int, run func(context.Context, *graph.DAG, mbsp.Arch, portfolio.Options) (*portfolio.Result, error)) (time.Duration, bool) {
		in := ins[i]
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
		defer cancel()
		o.attempted++
		start := time.Now()
		res, err := run(ctx, in.g, in.arch, ilpOptions())
		d := time.Since(start)
		if err != nil {
			o.fail("%s P=%d: %v", in.name, in.arch.P, err)
			return d, false
		}
		body, err := encodeResult(in, res)
		if err != nil {
			o.fail("%s P=%d: encoding: %v", in.name, in.arch.P, err)
			return d, false
		}
		if first[i] == nil {
			c, err := checkBody(in.g, in.arch, body)
			if err != nil {
				o.fail("%s P=%d: %v", in.name, in.arch.P, err)
				return d, false
			}
			first[i], checks[i] = body, c
			m.ratios = append(m.ratios, c.ratio)
			m.gaps = append(m.gaps, c.gap)
		} else if !bytes.Equal(body, first[i]) {
			o.fail("%s P=%d: result differs from the first pass", in.name, in.arch.P)
			return d, false
		}
		return d, true
	}

	// pass runs every model once in a seeded order.
	rng := rand.New(rand.NewSource(e.seed))
	pass := func(into *e2e, run func(int) (time.Duration, bool)) bool {
		start := time.Now()
		ok := true
		for _, i := range rng.Perm(len(ins)) {
			d, good := run(i)
			ok = ok && good
			if good {
				into.latencies = append(into.latencies, d)
				into.completed++
			}
		}
		d := time.Since(start)
		into.elapsed += d
		if ok {
			into.passes = append(into.passes, d)
		}
		return ok
	}

	// Untraced phase: whole passes while another one fits in the window,
	// at least one; a traced run measures a single pass per phase.
	library := func(i int) (time.Duration, bool) { return solve(i, portfolio.RunAnytime) }
	for start := time.Now(); ; {
		before := time.Now()
		pass(&m, library)
		if e.trace || time.Since(start)+time.Since(before) > e.seconds {
			break
		}
	}
	if !e.trace {
		m.report(o)
		return o, nil
	}

	var tr [2]*tracer
	var reps [2]layerReport
	for ph := range tr {
		t := newTracer()
		tr[ph] = t
		sl := &solverLayers{}
		var traced e2e
		lat := map[int64]time.Duration{}
		pass(&traced, func(i int) (time.Duration, bool) {
			d, ok := solve(i, func(ctx context.Context, g *graph.DAG, arch mbsp.Arch, opts portfolio.Options) (*portfolio.Result, error) {
				return tracedRun(ctx, t, sl, int64(i), 0, g, arch, opts)
			})
			lat[int64(i)] = d
			return d, ok
		})
		reps[ph] = solverReport(t, sl, ilpConfig, lat, o)
		if ph > 0 {
			continue
		}
		traceOverhead(o, &m, &traced)
		var probes []ioProbe
		for i, in := range ins {
			if checks[i] == nil {
				continue
			}
			var text bytes.Buffer
			if err := graph.Write(&text, in.g); err != nil {
				return nil, err
			}
			p, err := probeIO(t, int64(i), text.Bytes(), first[i], checks[i], in.arch)
			if err != nil {
				o.fail("probe %s: %v", in.name, err)
				continue
			}
			probes = append(probes, p)
		}
		reportIO(o, probes)
	}
	finishTrace(e, o, "ilp-large", tr, reps)
	return o, nil
}
