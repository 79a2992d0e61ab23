package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/portfolio"
	"mbsp/internal/wire"
)

// checked is one response that passed every output check.
type checked struct {
	resp  *wire.Response
	sched *mbsp.Schedule
	// ratio is the returned cost over the paper baseline's cost (the
	// bspg+clairvoyant candidate; dfs+clairvoyant on P=1), read from the
	// response's candidate ledger.
	ratio float64
	gap   float64
}

// baselineName is the candidate the paper's two-stage baseline maps to.
func baselineName(p int) string {
	if p == 1 {
		return "dfs+clairvoyant"
	}
	return "bspg+clairvoyant"
}

// checkBody verifies one 200 response body against the request DAG: the
// schedule is re-read with mbsp.ReadSchedule, validated, and its costs
// recomputed and compared with the reported ones; the certificate must
// be full fidelity (rung portfolio, nothing degraded, not interrupted)
// with a bound no larger than the cost; and the baseline candidate must
// have completed, so the cost ratio has a base.
func checkBody(g *graph.DAG, arch mbsp.Arch, body []byte) (*checked, error) {
	var resp wire.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if resp.Arch != (wire.ArchInfo{P: arch.P, R: arch.R, G: arch.G, L: arch.L}) {
		return nil, fmt.Errorf("response arch %+v, requested %+v", resp.Arch, arch)
	}
	s, err := mbsp.ReadSchedule(strings.NewReader(resp.Schedule), g)
	if err != nil {
		return nil, fmt.Errorf("re-reading schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("schedule invalid: %w", err)
	}
	if s.Arch != arch {
		return nil, fmt.Errorf("schedule arch %+v, requested %+v", s.Arch, arch)
	}
	model := mbsp.Sync
	if resp.Model == "async" {
		model = mbsp.Async
	}
	if c := s.Cost(model); c != resp.Cost || s.SyncCost() != resp.SyncCost || s.AsyncCost() != resp.AsyncCost {
		return nil, fmt.Errorf("recomputed cost %g (sync %g async %g), reported %g (sync %g async %g)",
			c, s.SyncCost(), s.AsyncCost(), resp.Cost, resp.SyncCost, resp.AsyncCost)
	}
	cert := resp.Certificate
	switch {
	case cert == nil:
		return nil, errors.New("no certificate")
	case cert.Rung != portfolio.RungPortfolio || cert.Interrupted || len(cert.Degraded) > 0:
		return nil, fmt.Errorf("certificate not full fidelity: rung %s interrupted %v degraded %v",
			cert.Rung, cert.Interrupted, cert.Degraded)
	case cert.Cost != resp.Cost:
		return nil, fmt.Errorf("certificate cost %g, response cost %g", cert.Cost, resp.Cost)
	case cert.Bound > resp.Cost:
		return nil, fmt.Errorf("certificate bound %g exceeds cost %g", cert.Bound, resp.Cost)
	}
	base := 0.0
	for _, c := range resp.Candidates {
		if c.Name == baselineName(arch.P) && c.Error == "" {
			base = c.Cost
		}
	}
	if base <= 0 {
		return nil, fmt.Errorf("baseline candidate %s missing from the ledger", baselineName(arch.P))
	}
	if resp.Cost > base {
		return nil, fmt.Errorf("returned cost %g worse than baseline %g", resp.Cost, base)
	}
	return &checked{resp: &resp, sched: s, ratio: resp.Cost / base, gap: cert.Gap}, nil
}

// stampMarker opens the per-request cache stamp, the last field of an
// indented wire.Response.
var stampMarker = []byte(",\n  \"cache\": {")

// unstamped returns body without its cache stamp: the bytes that must
// be identical between a key's cold response and every hit on it.
func unstamped(body []byte) ([]byte, error) {
	i := bytes.LastIndex(body, stampMarker)
	if i < 0 {
		return nil, errors.New("response has no cache stamp")
	}
	return body[:i], nil
}

// provenance extracts the cache stamp's provenance from a body.
func provenance(body []byte) string {
	i := bytes.LastIndex(body, stampMarker)
	if i < 0 {
		return ""
	}
	var stamp struct {
		Cache wire.CacheInfo `json:"cache"`
	}
	if err := json.Unmarshal(append([]byte("{"), body[i+2:]...), &stamp); err != nil {
		return ""
	}
	return stamp.Cache.Provenance
}
