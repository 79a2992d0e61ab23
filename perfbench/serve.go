package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mbsp/internal/graph"
	"mbsp/internal/mbsp"
	"mbsp/internal/server"
)

// computeTimeout is the servers' compute budget; every workload's node
// limit binds long before it.
const computeTimeout = 60 * time.Second

// request is one generated scheduling request.
type request struct {
	name  string
	g     *graph.DAG
	arch  mbsp.Arch
	body  []byte // the DAG in graph.Write text
	query string
}

// newRequest encodes g for P processors with the server's default
// machine parameters: r = 3 × the minimum cache, g = 1, L = 10.
func newRequest(name string, g *graph.DAG, p int) (*request, error) {
	var b bytes.Buffer
	if err := graph.Write(&b, g); err != nil {
		return nil, err
	}
	arch := mbsp.Arch{P: p, R: 3 * g.MinCache(), G: 1, L: 10}
	q := fmt.Sprintf("p=%d&r=%s&g=1&l=10", p, strconv.FormatFloat(arch.R, 'g', -1, 64))
	return &request{name: name, g: g, arch: arch, body: b.Bytes(), query: q}, nil
}

func newServer(cacheDir string, cfg solverConfig, compute server.Compute) (*server.Server, error) {
	return server.New(server.Config{
		CachePath:      cacheDir,
		Seed:           cfg.seed,
		ILPNodeLimit:   cfg.nodeLimit,
		MaxModelRows:   cfg.maxRows,
		ComputeTimeout: computeTimeout,
		Compute:        compute,
	})
}

func serverRecord(cfg solverConfig) map[string]any {
	m := cfg.record()
	m["compute_timeout_s"] = computeTimeout.Seconds()
	return m
}

// reqHeader carries the benchmark's request id to the traced handler.
const reqHeader = "X-Perfbench-Req"

// tracedHandler wraps h with a server.handler span per request.
func tracedHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(spanID(req, slotHandler), spanID(req, slotClient), req, "server.handler", start, time.Now())
	})
}

// newClient is a keep-alive HTTP client with its own connection pool.
func newClient() *http.Client { return &http.Client{Transport: &http.Transport{}} }

// post sends one scheduling request and returns status and body.
func post(c *http.Client, base string, id int64, r *request) (int, []byte, error) {
	hr, err := http.NewRequest(http.MethodPost, base+"/v1/schedule?"+r.query, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	resp, err := c.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// loopSpec drives a closed loop with one client: it sends its next
// request only after the previous one completed. Request idx belongs to
// pass idx/passSize.
type loopSpec struct {
	base     string
	window   time.Duration
	passSize int
	// wholePasses starts a pass only while the window is open, and
	// always finishes it; minPasses are run however long they take.
	wholePasses bool
	minPasses   int
	// next returns request idx, or nil when the inputs are exhausted.
	next func(idx int64) *request
	// onDone checks one completed request and reports whether it passed.
	onDone func(idx int64, r *request, status int, body []byte) bool
	t      *tracer
}

// loopResult is a closed loop's measurement.
type loopResult struct {
	lat      map[int64]time.Duration // per request that passed its check
	passes   []time.Duration         // per pass whose every request passed
	elapsed  time.Duration
	issued   int
	failures int
}

// addLoop takes a closed loop's latencies, passes and rate.
func (m *e2e) addLoop(l loopResult) {
	for _, d := range l.lat {
		m.latencies = append(m.latencies, d)
	}
	m.passes, m.elapsed, m.completed = l.passes, l.elapsed, len(l.lat)
}

func runLoop(s loopSpec) loopResult {
	res := loopResult{lat: map[int64]time.Duration{}}
	cl := newClient()
	defer cl.CloseIdleConnections()
	start := time.Now()
	deadline := start.Add(s.window)
	passStart, passOK := start, true
	for idx := int64(0); ; idx++ {
		first := idx%int64(s.passSize) == 0
		if (!s.wholePasses || first) && !time.Now().Before(deadline) &&
			idx >= int64(s.minPasses*s.passSize) {
			break
		}
		r := s.next(idx)
		if r == nil {
			break
		}
		if first {
			passStart, passOK = time.Now(), true
		}
		t0 := time.Now()
		status, body, err := post(cl, s.base, idx, r)
		t1 := time.Now()
		s.t.record(spanID(idx, slotClient), 0, idx, "http.client", t0, t1)
		res.issued++
		res.elapsed = t1.Sub(start)
		if err != nil || !s.onDone(idx, r, status, body) {
			res.failures++
			passOK = false
			continue
		}
		res.lat[idx] = t1.Sub(t0)
		if idx%int64(s.passSize) == int64(s.passSize)-1 && passOK {
			res.passes = append(res.passes, t1.Sub(passStart))
		}
	}
	return res
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// srv is a server behind an httptest listener.
type srv struct {
	srv *server.Server
	ts  *httptest.Server
	url string
}

func bootServer(dir string, cfg solverConfig, compute server.Compute, wrap func(http.Handler) http.Handler) (*srv, error) {
	s, err := newServer(dir, cfg, compute)
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	return &srv{srv: s, ts: ts, url: ts.URL}, nil
}

// close drains the listener, then the server (which snapshots a durable
// cache).
func (s *srv) close() {
	s.ts.Close()
	s.srv.Close()
}
