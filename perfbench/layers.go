package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"time"

	"mbsp/internal/bounds"
	"mbsp/internal/dnc"
	"mbsp/internal/graph"
	"mbsp/internal/ilpsched"
	"mbsp/internal/lp"
	"mbsp/internal/mbsp"
	"mbsp/internal/mip"
	"mbsp/internal/portfolio"
	"mbsp/internal/refine"
	"mbsp/internal/twostage"
	"mbsp/internal/wire"
)

// solverConfig is the deterministic portfolio configuration a workload
// runs under; the solver probes rebuild the ILP candidates' options from
// it.
type solverConfig struct {
	seed      int64
	nodeLimit int
	maxRows   int // 0: the library default
	timeLimit time.Duration
}

func (c solverConfig) record() map[string]any {
	return map[string]any{"portfolio_seed": c.seed, "node_limit": c.nodeLimit,
		"max_model_rows": c.maxRows, "ilp_time_limit_s": c.timeLimit.Seconds()}
}

// localSearchBudget is portfolio.Options' default, which the ILP
// candidate hands to ilpsched (and a quarter of it to dnc).
const localSearchBudget = 2000

// candObs is one candidate's traced execution.
type candObs struct {
	name       string
	start, end time.Time
	lu         lp.FactorStats
	cost       float64 // NaN when the candidate failed
	err        string
}

// runObs is one traced portfolio run.
type runObs struct {
	req        int64
	g          *graph.DAG
	arch       mbsp.Arch
	start, end time.Time
	cands      []candObs
	winner     string
}

// solverLayers collects one traced phase's solver observations.
type solverLayers struct {
	mu   sync.Mutex
	runs []*runObs
}

// candidateSpan names a candidate's span after the layer it enters.
func candidateSpan(name string) string {
	switch name {
	case "ilp":
		return "ilpsched.candidate"
	case "dnc-ilp":
		return "dnc.candidate"
	}
	return "twostage." + name
}

// tracedRun is portfolio.RunAnytime with spans around the run and each
// candidate. It wraps portfolio.DefaultCandidates in Options.Candidates,
// forwarding every call's options unchanged, and turns on
// Options.LUStats, whose per-candidate accumulators are observability
// only; neither changes the result.
func tracedRun(ctx context.Context, t *tracer, sl *solverLayers, req, parent int64,
	g *graph.DAG, arch mbsp.Arch, opts portfolio.Options) (*portfolio.Result, error) {
	cands := portfolio.DefaultCandidates(g, arch)
	if len(cands) > maxCandidates {
		return nil, fmt.Errorf("perfbench: %d candidates exceed the %d span slots", len(cands), maxCandidates)
	}
	obs := &runObs{req: req, g: g, arch: arch, cands: make([]candObs, len(cands))}
	runID := spanID(req, slotRun)
	wrapped := make([]portfolio.Candidate, len(cands))
	for i, c := range cands {
		wrapped[i] = portfolio.Candidate{Name: c.Name, Run: func(ctx context.Context, g *graph.DAG, arch mbsp.Arch, opts portfolio.Options) (*mbsp.Schedule, error) {
			start := time.Now()
			s, err := c.Run(ctx, g, arch, opts)
			end := time.Now()
			co := candObs{name: c.Name, start: start, end: end}
			if opts.LUStats != nil {
				co.lu = *opts.LUStats
			}
			obs.cands[i] = co // each candidate writes its own slot; read after Run returns
			t.record(spanID(req, slotCandidate+i), runID, req, candidateSpan(c.Name), start, end)
			return s, err
		}}
	}
	opts.Candidates = wrapped
	opts.LUStats = &lp.FactorStats{}
	obs.start = time.Now()
	res, err := portfolio.RunAnytime(ctx, g, arch, opts)
	obs.end = time.Now()
	t.record(runID, parent, req, "portfolio.run", obs.start, obs.end)
	if res != nil {
		obs.winner = res.BestName
		for i := range res.Candidates {
			c := &res.Candidates[i]
			obs.cands[i].cost = c.Cost
			if c.Err != nil {
				obs.cands[i].err = c.Err.Error()
			}
		}
	}
	sl.mu.Lock()
	sl.runs = append(sl.runs, obs)
	sl.mu.Unlock()
	return res, err
}

// candidateSeed mirrors the portfolio's per-candidate seed derivation.
func candidateSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64()&math.MaxInt64)
}

// probeObs is one run's solver probe: the ILP and DnC candidates
// re-solved out of band through ilpsched.Solve, refine.Improve and
// dnc.Solve, with the options the portfolio gives them, to read the
// statistics the portfolio does not return.
type probeObs struct {
	ilp        ilpsched.Stats
	refineEval int
	refineDur  time.Duration
	dnc        *dnc.Stats
	match      bool // both probes reproduced the ledger's costs
}

// probeSolvers re-solves obs's ILP-based candidates. The sealed shared
// incumbent is rebuilt from the baseline warm start, exactly as a
// node-limited portfolio run seals it.
func probeSolvers(t *tracer, cfg solverConfig, obs *runObs) (probeObs, error) {
	var po probeObs
	g, arch := obs.g, obs.arch
	pl := twostage.BSPgClairvoyant(arch.G, arch.L)
	if arch.P == 1 {
		pl = twostage.DFSClairvoyant()
	}
	inc := mip.NewIncumbent()
	warm, err := pl.Run(g, arch)
	if err != nil || warm.Validate() != nil {
		warm = nil
	} else {
		inc.Offer(warm.Cost(mbsp.Sync))
	}
	inc.Seal()

	// The DnC probe runs beside the ILP probe, as the two candidates run
	// side by side in the portfolio.
	var dncCand *candObs
	for i := range obs.cands {
		if obs.cands[i].name == "dnc-ilp" {
			dncCand = &obs.cands[i]
		}
	}
	var wg sync.WaitGroup
	var ds dnc.Stats
	var dsched *mbsp.Schedule
	var dncErr error
	if dncCand != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.timeProbe(obs.req, "dnc.solve", func() {
				dsched, ds, dncErr = dnc.Solve(g, arch, dnc.Options{
					Context: context.Background(), Model: mbsp.Sync, SubTimeLimit: cfg.timeLimit,
					SubNodeLimit: cfg.nodeLimit, PartitionNodeLimit: cfg.nodeLimit, MIPWorkers: 1,
					LocalSearchBudget: localSearchBudget / 4, MaxModelRows: cfg.maxRows,
					Seed: candidateSeed(cfg.seed, "dnc-ilp"), Incumbent: inc,
				})
			})
		}()
	}

	var s *mbsp.Schedule
	ilpSeed := candidateSeed(cfg.seed, "ilp")
	t.timeProbe(obs.req, "ilpsched.solve", func() {
		s, po.ilp, err = ilpsched.Solve(g, arch, ilpsched.Options{
			Context: context.Background(), Model: mbsp.Sync, TimeLimit: cfg.timeLimit,
			NodeLimit: cfg.nodeLimit, MIPWorkers: 1, LocalSearchBudget: localSearchBudget,
			MaxModelRows: cfg.maxRows, Seed: ilpSeed, WarmStart: warm, Incumbent: inc,
			DisableLocalSearch: true,
		})
	})
	cost := math.NaN()
	if err == nil {
		cost = s.Cost(mbsp.Sync)
		if arch.P > 1 {
			var r refine.Result
			po.refineDur = t.timeProbe(obs.req, "refine.improve", func() {
				r = refine.Improve(s, refine.Options{Budget: localSearchBudget, Seed: ilpSeed, Model: mbsp.Sync})
			})
			po.refineEval = r.Evals
			if r.Cost < cost-1e-9 {
				cost = r.Cost
			}
		}
	}
	wg.Wait()
	if err != nil {
		return po, fmt.Errorf("ilpsched probe: %w", err)
	}
	po.match = true
	for _, c := range obs.cands {
		if c.name == "ilp" {
			po.match = c.err == "" && c.cost == cost
		}
	}
	if dncCand != nil {
		po.dnc = &ds
		switch {
		case dncErr == nil:
			po.match = po.match && dncCand.err == "" && dncCand.cost == dsched.Cost(mbsp.Sync)
		case errors.Is(dncErr, dnc.ErrIncumbentCutoff):
			po.match = po.match && strings.Contains(dncCand.err, dnc.ErrIncumbentCutoff.Error())
		default:
			return po, fmt.Errorf("dnc probe: %w", dncErr)
		}
	}
	return po, nil
}

// ioProbe times the request-path layers on one completed request's
// input and output, out of band: graph.Read on the request body,
// Fingerprint plus ExactDigest, the indented wire encode of the decoded
// response (whose bytes must reproduce the body), the lower bound, and
// schedule validation.
type ioProbe struct {
	read, fingerprint, encode, lowerBound, validate time.Duration
}

const ioProbeReps = 5

func probeIO(t *tracer, req int64, dagText, body []byte, c *checked, arch mbsp.Arch) (ioProbe, error) {
	var p ioProbe
	reps := func(name string, f func() error) (time.Duration, error) {
		var ds []float64
		var ferr error
		for i := 0; i < ioProbeReps && ferr == nil; i++ {
			ds = append(ds, float64(t.timeProbe(req, name, func() { ferr = f() })))
		}
		return time.Duration(median(ds)), ferr
	}
	var g *graph.DAG
	var err error
	if p.read, err = reps("graph.read", func() (e error) {
		g, e = graph.Read(strings.NewReader(string(dagText)))
		return e
	}); err != nil {
		return p, fmt.Errorf("graph.Read: %w", err)
	}
	p.fingerprint, _ = reps("graph.fingerprint", func() error {
		g.Fingerprint()
		g.ExactDigest()
		return nil
	})
	var resp wire.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return p, err
	}
	var enc strings.Builder
	if p.encode, err = reps("wire.encode", func() error {
		enc.Reset()
		e := json.NewEncoder(&enc)
		e.SetIndent("", "  ")
		return e.Encode(&resp)
	}); err != nil {
		return p, err
	}
	if enc.String() != string(body) {
		return p, errors.New("wire re-encode does not reproduce the response bytes")
	}
	var lb bounds.Report
	p.lowerBound, err = reps("bounds.lower_bound", func() (e error) {
		lb, e = bounds.LowerBound(g, arch)
		return e
	})
	if err != nil {
		return p, err
	}
	if lb.Best > c.resp.Cost {
		return p, fmt.Errorf("lower bound %g exceeds the returned cost %g", lb.Best, c.resp.Cost)
	}
	p.validate, err = reps("mbsp.validate", c.sched.Validate)
	return p, err
}

// layerReport accumulates one traced phase's per-layer metrics.
type layerReport struct {
	vals   map[string]float64
	counts map[string]float64 // the deterministic counts, for the repeat check
}

// solverReport summarises a phase's traced portfolio runs and their
// solver probes. latency maps a request to its end-to-end latency.
func solverReport(t *tracer, sl *solverLayers, cfg solverConfig, latency map[int64]time.Duration, o *outcome) layerReport {
	r := layerReport{vals: map[string]float64{}, counts: map[string]float64{}}
	n := float64(len(sl.runs))
	if n == 0 {
		return r
	}
	var runT, queue, pipe, ilpT, dncT, useful, critILP, critDNC, nCand, nDNC float64
	var lu lp.FactorStats
	var fill []float64
	var medReq *runObs
	var reqLat []float64
	for _, ob := range sl.runs {
		reqLat = append(reqLat, float64(latency[ob.req]))
	}
	medLat := median(reqLat)
	best := math.Inf(1)
	for _, ob := range sl.runs {
		runT += ms(ob.end.Sub(ob.start))
		var total, winner float64
		last := -1
		for i, c := range ob.cands {
			if c.name == "" {
				continue // never started: the run was cancelled first
			}
			d := ms(c.end.Sub(c.start))
			queue += ms(c.start.Sub(ob.start))
			nCand++
			total += d
			if c.name == ob.winner {
				winner = d
			}
			if last < 0 || c.end.After(ob.cands[last].end) {
				last = i
			}
			switch c.name {
			case "ilp":
				ilpT += d
			case "dnc-ilp":
				dncT += d
				nDNC++
			default:
				pipe += d
			}
			lu.Add(c.lu)
			if c.lu.BasisNnz > 0 {
				fill = append(fill, float64(c.lu.FillNnz)/float64(c.lu.BasisNnz))
			}
		}
		if total > 0 {
			useful += winner / total
		}
		if last >= 0 {
			switch ob.cands[last].name {
			case "ilp":
				critILP++
			case "dnc-ilp":
				critDNC++
			}
		}
		if d := math.Abs(float64(latency[ob.req]) - medLat); d < best {
			best, medReq = d, ob
		}
	}
	r.vals["portfolio.run_ms"] = runT / n
	if nCand > 0 {
		r.vals["portfolio.queue_ms"] = queue / nCand
	}
	r.vals["portfolio.useful_frac"] = useful / n
	r.vals["portfolio.critical_ilp_frac"] = critILP / n
	r.vals["portfolio.critical_dnc_frac"] = critDNC / n
	r.vals["twostage.run_ms"] = pipe / n
	r.vals["candidate.ilp_ms"] = ilpT / n
	if nDNC > 0 {
		r.vals["candidate.dnc_ms"] = dncT / nDNC
	}
	r.counts["lp.refactors"] = float64(lu.Refactors) / n
	r.counts["lp.ftrans"] = float64(lu.Ftrans) / n
	r.counts["lp.btrans"] = float64(lu.Btrans) / n
	r.counts["lp.eta_pivots"] = float64(lu.EtaPivots) / n
	r.counts["lp.hot_solves"] = float64(lu.HotSolves) / n
	r.counts["lp.replays"] = float64(lu.Replays) / n
	r.vals["lp.fill_ratio"] = mean(fill)
	r.vals["lp.factor_ms"] = float64(lu.FactorNanos) / 1e6 / n
	r.vals["lp.trisolve_ms"] = float64(lu.SolveNanos) / 1e6 / n
	if ilpT+dncT > 0 {
		r.vals["lp.kernel_share"] = (float64(lu.FactorNanos+lu.SolveNanos) / 1e6) / (ilpT + dncT)
	}
	if medReq != nil {
		var k, busy int64
		for _, c := range medReq.cands {
			k += c.lu.FactorNanos + c.lu.SolveNanos
			busy += c.end.Sub(c.start).Nanoseconds()
		}
		if busy > 0 {
			r.vals["lp.median_request_share"] = float64(k) / float64(busy)
		}
	}

	// Solver probes: the statistics the portfolio does not return.
	var rows []float64
	var refineT, tree, moves, match, parts, single, partIters, nodes, iters, warmLPs, coldLPs, dncRuns float64
	for _, ob := range sl.runs {
		po, err := probeSolvers(t, cfg, ob)
		if err != nil {
			o.fail("req %d: %v", ob.req, err)
			continue
		}
		rows = append(rows, float64(po.ilp.ModelRows))
		if po.ilp.UsedILP {
			tree++
		}
		if po.match {
			match++
		}
		moves += float64(po.refineEval)
		refineT += ms(po.refineDur)
		nodes += float64(po.ilp.ILPNodes)
		iters += float64(po.ilp.SimplexIters)
		warmLPs += float64(po.ilp.WarmLPs)
		coldLPs += float64(po.ilp.ColdLPs)
		if d := po.dnc; d != nil {
			dncRuns++
			parts += float64(d.Parts)
			if d.Parts == 1 {
				single++
			}
			partIters += float64(d.PartitionSolver.SimplexIters)
			nodes += float64(d.PartitionSolver.Nodes)
			iters += float64(d.SimplexIters)
			warmLPs += float64(d.PartitionSolver.WarmLPs)
			coldLPs += float64(d.PartitionSolver.ColdLPs)
			for _, st := range d.SubILPStats {
				nodes += float64(st.ILPNodes)
				warmLPs += float64(st.WarmLPs)
				coldLPs += float64(st.ColdLPs)
			}
		}
	}
	r.counts["ilpsched.model_rows"] = median(rows)
	r.vals["ilpsched.tree_frac"] = tree / n
	r.vals["refine.improve_ms"] = refineT / n
	r.counts["ilpsched.local_moves"] = moves / n
	r.vals["ilpsched.probe_match_frac"] = match / n
	if dncRuns > 0 {
		r.counts["dnc.parts"] = parts / dncRuns
		r.vals["dnc.single_part_frac"] = single / dncRuns
		r.counts["partition.simplex_iters"] = partIters / dncRuns
	}
	r.counts["mip.nodes"] = nodes / n
	r.counts["mip.simplex_iters"] = iters / n
	if nodes > 0 {
		r.vals["mip.iters_per_node"] = iters / nodes
	}
	if warmLPs+coldLPs > 0 {
		r.vals["mip.warm_lp_frac"] = warmLPs / (warmLPs + coldLPs)
	}
	return r
}
