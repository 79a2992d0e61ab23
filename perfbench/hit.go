package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mbsp/internal/persist"
	"mbsp/internal/workloads"
)

// hitConfig is the hit server's configuration. The cache is populated
// under it before the run; hits never reach the solver, so it only
// shapes the cached bodies. The one-row cap keeps every holistic ILP on
// the warm-start + local-search path, which keeps population short.
var hitConfig = solverConfig{seed: 1, nodeLimit: 5, maxRows: 1, timeLimit: computeTimeout}

// One closed-loop client: with two, client and server saturate both
// CPUs of a 2-CPU machine and the tail latency and throughput follow
// the machine's load (an IQR of 0.79 and 0.36 of the median over ten
// runs, against 0.09 and 0.08 with one). Population uses two, as it is
// not measured.
const (
	hitClients   = 1
	popWorkers   = 2
	hitSetupReps = 21
	hitPerms     = 64
)

// hitRequests is the populated key set: every tiny and small registry
// DAG on P ∈ {2, 4}.
func hitRequests() ([]*request, error) {
	var reqs []*request
	for _, in := range append(workloads.Tiny(), workloads.Small()...) {
		for _, p := range []int{2, 4} {
			r, err := newRequest(in.Name, in.DAG, p)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, r)
		}
	}
	return reqs, nil
}

func coldBodyPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("cold-%03d.json", i))
}

// populateHitCache computes every key once through a server with a
// durable cache in dir/cache, stores each cold body beside it, and
// drains the server so the cache is snapshotted. It runs in a child
// process, so the solver's memory stays out of the measured process's
// peak RSS.
func populateHitCache(dir string) error {
	reqs, err := hitRequests()
	if err != nil {
		return err
	}
	s, err := newServer(filepath.Join(dir, "cache"), hitConfig, nil)
	if err != nil {
		return err
	}
	ts := httptest.NewServer(s.Handler())
	defer s.Close()
	defer ts.Close()
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < popWorkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for i := c; i < len(reqs); i += popWorkers {
				status, body, err := post(cl, ts.URL, int64(i), reqs[i])
				// The admission slot of the previous cold run is released
				// just after its response; retry a shed request.
				for err == nil && status == http.StatusTooManyRequests {
					time.Sleep(10 * time.Millisecond)
					status, body, err = post(cl, ts.URL, int64(i), reqs[i])
				}
				switch {
				case err != nil:
					errs[i] = err
				case status != http.StatusOK || provenance(body) != "cold":
					errs[i] = fmt.Errorf("%s P=%d: status %d provenance %q", reqs[i].name, reqs[i].arch.P, status, provenance(body))
				default:
					errs[i] = os.WriteFile(coldBodyPath(dir, i), body, 0o644)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func runHit(e *env) (*outcome, error) {
	o := newOutcome()
	o.config["server"] = serverRecord(hitConfig)
	o.config["clients"] = hitClients
	reqs, err := hitRequests()
	if err != nil {
		return nil, err
	}
	pop := filepath.Join(e.tmp, "populated")
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--populate", pop)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("populating the cache: %w", err)
	}

	// A hit is single-threaded work handed between the client and the
	// handler goroutine. With a second P every hand-off can cross CPUs,
	// and on a 2-vCPU VM its cost follows the host's load: throughput
	// read 625–1173 req/s with two Ps against 1049–1265 with one,
	// alternating runs. The population child keeps every CPU.
	runtime.GOMAXPROCS(1)

	// Every cold body gets the full output check; hits must then repeat
	// its bytes exactly, apart from the cache stamp.
	cold := make([][]byte, len(reqs))
	expect := make([][]byte, len(reqs))
	var m e2e
	checks := make([]*checked, len(reqs))
	for i, r := range reqs {
		o.attempted++
		body, err := os.ReadFile(coldBodyPath(pop, i))
		if err != nil {
			return nil, err
		}
		c, err := checkBody(r.g, r.arch, body)
		if err != nil {
			o.fail("cold %s P=%d: %v", r.name, r.arch.P, err)
			continue
		}
		checks[i] = c
		cold[i] = body
		expect[i], _ = unstamped(body) // population checked the stamp
		m.ratios = append(m.ratios, c.ratio)
		m.gaps = append(m.gaps, c.gap)
	}

	// Set-up: boot a fresh server from a copy of the populated cache
	// (recovery included) and start its listener; the median of several
	// boots is reported, the last boot serves the run.
	var s *srv
	for i := 0; i < hitSetupReps; i++ {
		dir := filepath.Join(e.tmp, fmt.Sprintf("boot-%d", i))
		if err := copyDir(filepath.Join(pop, "cache"), dir); err != nil {
			return nil, err
		}
		start := time.Now()
		next, err := bootServer(dir, hitConfig, nil, nil)
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(start))
		if s != nil {
			s.close()
		}
		s = next
	}
	defer s.close()

	rng := rand.New(rand.NewSource(e.seed))
	perms := make([][]int, hitPerms)
	for i := range perms {
		perms[i] = rng.Perm(len(reqs))
	}
	n := int64(len(reqs))
	keyOf := func(idx int64) int { return perms[(idx/n)%hitPerms][idx%n] }
	isHit := func(k int, status int, body []byte) bool {
		u, err := unstamped(body)
		return status == http.StatusOK && err == nil && bytes.Equal(u, expect[k]) &&
			provenance(body) == "hit"
	}
	phase := func(base string, t *tracer) loopResult {
		return runLoop(loopSpec{
			base: base, window: e.seconds, passSize: len(reqs), t: t,
			next: func(idx int64) *request { return reqs[keyOf(idx)] },
			onDone: func(idx int64, r *request, status int, body []byte) bool {
				return isHit(keyOf(idx), status, body)
			},
		})
	}
	// Warm-up: one unmeasured pass over every key, so the connection,
	// the heap and the response path are warm when the window opens.
	w := runLoop(loopSpec{
		base: s.url, passSize: len(reqs), wholePasses: true, minPasses: 1,
		next: func(idx int64) *request { return reqs[idx] },
		onDone: func(idx int64, r *request, status int, body []byte) bool {
			return isHit(int(idx), status, body)
		},
	})
	o.attempted += w.issued
	for i := 0; i < w.failures; i++ {
		o.fail("warm-up hit response differs from its cold body or is not a 200 hit")
	}
	// A traced run gives each of its three phases a third of the window.
	if e.trace {
		e.seconds /= 3
	}
	a := phase(s.url, nil)
	m.addLoop(a)
	o.attempted += a.issued
	for i := 0; i < a.failures; i++ {
		o.fail("hit response differs from its cold body or is not a 200 hit")
	}
	if st := s.srv.Stats(); st.Cache.Misses > 0 || st.Cache.Runs > 0 {
		o.fail("hit phase reached the solver: %d misses, %d runs", st.Cache.Misses, st.Cache.Runs)
	}
	if !e.trace {
		m.report(o)
		return o, nil
	}

	// Traced run: two traced phases through a handler wrapper on the
	// same server, then out-of-band probes on every key.
	var tr [2]*tracer
	var res [2]loopResult
	for i := range tr {
		tr[i] = newTracer()
		ts := httptest.NewServer(tracedHandler(tr[i], s.srv.Handler()))
		res[i] = phase(ts.URL, tr[i])
		ts.Close()
		o.attempted += res[i].issued
		for j := 0; j < res[i].failures; j++ {
			o.fail("traced hit response differs from its cold body or is not a 200 hit")
		}
	}
	var mb e2e
	mb.addLoop(res[0])
	traceOverhead(o, &m, &mb)

	t := tr[0]
	reportServed(t, o, res[0], func(idx int64) []byte { return cold[keyOf(idx)] })
	st := s.srv.Stats()
	if tot := st.Cache.Hits + st.Cache.Misses; tot > 0 {
		o.set("schedcache.hit_ratio", "ratio", float64(st.Cache.Hits)/float64(tot))
	}

	var probes []ioProbe
	for i, r := range reqs {
		p, err := probeIO(t, -int64(i)-1, r.body, cold[i], checks[i], r.arch)
		if err != nil {
			o.fail("probe %s P=%d: %v", r.name, r.arch.P, err)
			continue
		}
		probes = append(probes, p)
	}
	reportIO(o, probes)

	var rec []float64
	for i := 0; i < hitSetupReps; i++ {
		dir := filepath.Join(e.tmp, fmt.Sprintf("recover-%d", i))
		if err := copyDir(filepath.Join(pop, "cache"), dir); err != nil {
			return nil, err
		}
		d := t.timeProbe(0, "persist.recover", func() {
			var st *persist.Store
			if st, _, err = persist.Open(dir, persist.Options{}); err == nil {
				err = st.Close()
			}
		})
		if err != nil {
			return nil, fmt.Errorf("persist probe: %w", err)
		}
		rec = append(rec, ms(d))
	}
	o.set("persist.recover_ms", "ms", median(rec))
	o.samples["persist.recover_ms"] = len(rec)

	finishTrace(e, o, "hit", tr, [2]layerReport{})
	return o, nil
}
