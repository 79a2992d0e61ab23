package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// endToEnd lists the metrics of an untraced run, perLayer those of a
// traced run; BENCHMARK.json declares the same names and units.
//
// Per-layer times and counts are means per request of the first traced
// phase (per DnC run for candidate.dnc_ms, dnc.* and partition.*); the
// probe metrics (graph, wire, bounds, mbsp, persist, refine) are medians
// of repeated out-of-band calls, averaged over the inputs. A layer the
// workload never enters reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"solve_s", "s"},
	{"cost_ratio", "ratio"},
	{"gap_median", "ratio"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"graph.read_us", "us"},
	{"graph.fingerprint_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.response_bytes", "bytes"},
	{"server.handler_us", "us"},
	{"http.client_us", "us"},
	{"schedcache.hit_ratio", "ratio"},
	{"persist.recover_ms", "ms"},
	{"persist.append_ms", "ms"},
	{"persist.journal_bytes", "bytes"},
	{"portfolio.run_ms", "ms"},
	{"portfolio.queue_ms", "ms"},
	{"portfolio.critical_ilp_frac", "ratio"},
	{"portfolio.critical_dnc_frac", "ratio"},
	{"portfolio.useful_frac", "ratio"},
	{"twostage.run_ms", "ms"},
	{"refine.improve_ms", "ms"},
	{"bounds.lower_bound_us", "us"},
	{"mbsp.validate_us", "us"},
	{"candidate.ilp_ms", "ms"},
	{"candidate.dnc_ms", "ms"},
	{"ilpsched.model_rows", "count"},
	{"ilpsched.tree_frac", "ratio"},
	{"ilpsched.local_moves", "count"},
	{"ilpsched.probe_match_frac", "ratio"},
	{"dnc.parts", "count"},
	{"dnc.single_part_frac", "ratio"},
	{"partition.simplex_iters", "count"},
	{"mip.nodes", "count"},
	{"mip.simplex_iters", "count"},
	{"mip.iters_per_node", "ratio"},
	{"mip.warm_lp_frac", "ratio"},
	{"lp.refactors", "count"},
	{"lp.ftrans", "count"},
	{"lp.btrans", "count"},
	{"lp.eta_pivots", "count"},
	{"lp.hot_solves", "count"},
	{"lp.replays", "count"},
	{"lp.fill_ratio", "ratio"},
	{"lp.factor_ms", "ms"},
	{"lp.trisolve_ms", "ms"},
	{"lp.kernel_share", "ratio"},
	{"lp.median_request_share", "ratio"},
	{"self.http_ms", "ms"},
	{"self.server_ms", "ms"},
	{"self.portfolio_ms", "ms"},
	{"self.twostage_ms", "ms"},
	{"self.ilpsched_ms", "ms"},
	{"self.dnc_ms", "ms"},
	{"trace.latency_p50_delta_ms", "ms"},
	{"trace.throughput_delta_rps", "1/s"},
	{"trace.solve_delta_s", "s"},
	{"trace.timing_dependent_counts", "count"},
	{"failed_frac", "ratio"},
}

type metricDef struct{ name, unit string }

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// selectMetrics keeps exactly the declared metrics of the run's kind.
// A traced run reports 0 for a layer its workload never enters; an
// untraced run that misses an end-to-end metric is a benchmark bug.
func selectMetrics(o *outcome, trace bool) (map[string]metric, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := map[string]metric{}
	for _, d := range defs {
		m, ok := o.metrics[d.name]
		if !ok {
			if !trace {
				return nil, fmt.Errorf("end-to-end metric %s not measured", d.name)
			}
			m = metric{0, d.unit}
		}
		out[d.name] = m
	}
	return out, nil
}

// traceOverhead reports the traced phase's end-to-end figures minus the
// untraced phase's, measured in the same process on the same inputs.
func traceOverhead(o *outcome, untraced, traced *e2e) {
	p50 := func(m *e2e) float64 { return quantile(durations(m.latencies, ms), 0.5) }
	thr := func(m *e2e) float64 { return float64(m.completed) / m.elapsed.Seconds() }
	sol := func(m *e2e) float64 {
		return median(durations(m.passes, func(d time.Duration) float64 { return d.Seconds() }))
	}
	o.set("trace.latency_p50_delta_ms", "ms", p50(traced)-p50(untraced))
	o.set("trace.throughput_delta_rps", "1/s", thr(traced)-thr(untraced))
	o.set("trace.solve_delta_s", "s", sol(traced)-sol(untraced))
}

// reportIO reports the request-path probes, as means over inputs.
func reportIO(o *outcome, ps []ioProbe) {
	var read, fp, enc, lb, val []float64
	for _, p := range ps {
		read = append(read, us(p.read))
		fp = append(fp, us(p.fingerprint))
		enc = append(enc, us(p.encode))
		lb = append(lb, us(p.lowerBound))
		val = append(val, us(p.validate))
	}
	o.set("graph.read_us", "us", mean(read))
	o.set("graph.fingerprint_us", "us", mean(fp))
	o.set("wire.encode_us", "us", mean(enc))
	o.set("bounds.lower_bound_us", "us", mean(lb))
	o.set("mbsp.validate_us", "us", mean(val))
	for _, n := range []string{"graph.read_us", "graph.fingerprint_us", "wire.encode_us", "bounds.lower_bound_us", "mbsp.validate_us"} {
		o.samples[n] = len(ps) * ioProbeReps
	}
}

// selfLayers are the layers whose in-band spans the traced runs record.
var selfLayers = []string{"http", "server", "portfolio", "twostage", "ilpsched", "dnc"}

// finishTrace reports self time per layer from the first traced phase,
// the solver report, the counts that did not repeat between the two
// traced phases (marked timing-dependent), and writes the spans.
func finishTrace(e *env, o *outcome, workload string, tr [2]*tracer, reps [2]layerReport) {
	t := tr[0]
	self := t.selfTimes()
	n := float64(max(1, t.requests()))
	for _, l := range selfLayers {
		o.set("self."+l+"_ms", "ms", ms(self[l])/n)
	}
	for k, v := range reps[0].vals {
		o.set(k, unitOf(k), v)
	}
	for k, v := range reps[0].counts {
		o.set(k, unitOf(k), v)
	}
	dep := []string{}
	for _, k := range sortedKeys(reps[0].counts) {
		if v, ok := reps[1].counts[k]; !ok || v != reps[0].counts[k] {
			dep = append(dep, k)
		}
	}
	o.set("trace.timing_dependent_counts", "count", float64(len(dep)))
	o.extra["timing_dependent"] = dep
	o.extra["tree_frac"] = reps[0].vals["ilpsched.tree_frac"]
	o.extra["counts_phase1"] = reps[0].counts
	o.extra["counts_phase2"] = reps[1].counts
	path := filepath.Join(e.out, fmt.Sprintf("%s-seed%d-spans.json", workload, e.seed))
	if err := t.write(path); err != nil {
		o.extra["spans_error"] = err.Error()
	} else {
		o.extra["spans"] = path
	}
}
