package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dmfsgd/internal/load"
)

// clients is the closed loop's connection count: the box has two
// cores, shared by client and server.
const clients = 2

// poolPhase is the phase of the program's default load spec
// (load.Default) whose request mix every HTTP window replays: 60%
// GET /predict, 20% POST /predict with 32 pairs, 20% GET /rank with 128
// candidates, Zipf(1.2) node ids.
const poolPhase = "latency-under-refresh"

// prepared is one request rendered ahead of the run, so the timed loop
// spends nothing on building it.
type prepared struct {
	kind  load.Kind
	url   string
	body  []byte
	i, j  int
	pairs [][2]int
	cands []int
}

// requestPool expands poolPhase, with `clients` clients and `size`
// requests, through the program's own generator (internal/load:
// Zipf-skewed node ids over a seeded permutation) and renders every
// request as a path.
func requestPool(seed int64, n, size int) ([]prepared, error) {
	var ph *load.PhaseSpec
	for _, p := range load.Default().Phases {
		if p.Name == poolPhase {
			ph = &p
		}
	}
	if ph == nil {
		return nil, fmt.Errorf("load.Default() has no phase %q", poolPhase)
	}
	ph.Requests, ph.Clients = size, clients
	spec := &load.WorkloadSpec{Schema: load.SchemaSpec, Name: "perfbench", Seed: seed, Phases: []load.PhaseSpec{*ph}}
	w, err := load.Expand(spec, n)
	if err != nil {
		return nil, err
	}
	out := make([]prepared, len(w.Phases[0].Requests))
	for k, r := range w.Phases[0].Requests {
		p := prepared{kind: r.Kind, i: r.I, j: r.J}
		switch r.Kind {
		case load.KindPredict:
			p.url = fmt.Sprintf("/predict?i=%d&j=%d", r.I, r.J)
		case load.KindPredictBatch:
			p.url = "/predict"
			b := []byte(`{"pairs":[`)
			for q, pp := range r.Pairs {
				if q > 0 {
					b = append(b, ',')
				}
				b = append(b, '[')
				b = strconv.AppendInt(b, int64(pp.I), 10)
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(pp.J), 10)
				b = append(b, ']')
				p.pairs = append(p.pairs, [2]int{pp.I, pp.J})
			}
			p.body = append(b, ']', '}')
		case load.KindRank:
			b := []byte("/rank?i=" + strconv.Itoa(r.I) + "&candidates=")
			for q, c := range r.Cands {
				if q > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(c), 10)
			}
			p.url = string(b)
			p.cands = r.Cands
		}
		out[k] = p
	}
	return out, nil
}

// newHTTPClient pools exactly `clients` keep-alive connections per
// server, for dmfserve and the reference server.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        2 * clients,
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 30 * time.Second,
	}
}

// loadGen drives one server with the request pool, checking every
// response with vf.
type loadGen struct {
	hc   *http.Client
	base string
	pool []prepared
	vf   verifier
	tr   *tracer
	next atomic.Uint64 // position in the pool, shared by the clients
	ids  atomic.Uint64 // request ids for spans
}

// sliceDur is how long one HTTP window keeps to one server before it
// switches to the other (see pairedWindow).
const sliceDur = 500 * time.Millisecond

// windowResult is what one timed window of requests saw, or several
// windows merged.
type windowResult struct {
	attempted, failed int
	firstErr          error
	elapsed           time.Duration
	latMS             []float64 // per completed request, sorted
	clientCPU         time.Duration
	clientMallocs     uint64
}

// rps is the window's completion rate.
func (r *windowResult) rps() float64 { return float64(len(r.latMS)) / r.elapsed.Seconds() }

// add merges o into r.
func (r *windowResult) add(o *windowResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.elapsed += o.elapsed
	r.latMS = append(r.latMS, o.latMS...)
	sort.Float64s(r.latMS)
	r.clientCPU += o.clientCPU
	r.clientMallocs += o.clientMallocs
}

type clientState struct {
	buf bytes.Buffer
}

// do sends one request, reads the answer and verifies it. done is when
// the answer was read: verification runs after it, outside the request's
// latency, and a mismatch still fails the request.
func (g *loadGen) do(p *prepared, cs *clientState) (done time.Time, err error) {
	id := g.ids.Add(1)
	root := g.tr.begin("load.request", id, -1)
	defer g.tr.end(root)
	var req *http.Request
	if p.body != nil {
		req, err = http.NewRequest(http.MethodPost, g.base+p.url, bytes.NewReader(p.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, g.base+p.url, nil)
	}
	if err != nil {
		return time.Time{}, err
	}
	sp := g.tr.begin("nethttp.roundtrip", id, root)
	resp, err := g.hc.Do(req)
	g.tr.end(sp)
	if err != nil {
		return time.Time{}, err
	}
	sp = g.tr.begin("load.read_body", id, root)
	cs.buf.Reset()
	_, err = cs.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done = time.Now()
	g.tr.end(sp)
	if err != nil {
		return done, err
	}
	if resp.StatusCode != http.StatusOK {
		return done, fmt.Errorf("%s: status %d: %.200s", p.url, resp.StatusCode, cs.buf.Bytes())
	}
	sp = g.tr.begin("load.verify", id, root)
	defer g.tr.end(sp)
	body := cs.buf.Bytes()
	switch p.kind {
	case load.KindPredict:
		err = g.vf.predict(p.i, p.j, body)
	case load.KindPredictBatch:
		err = g.vf.predictBatch(p.pairs, body)
	default:
		err = g.vf.rank(p.i, p.cands, body)
	}
	if err != nil {
		return done, fmt.Errorf("%s: %w", p.url, err)
	}
	return done, nil
}

func (g *loadGen) take() *prepared {
	return &g.pool[int((g.next.Add(1)-1)%uint64(len(g.pool)))]
}

// closedLoop runs `clients` clients back to back for dur.
func (g *loadGen) closedLoop(ctx context.Context, dur time.Duration) *windowResult {
	return g.window(ctx, func(res *windowResult, mu *sync.Mutex, t0 time.Time) {
		var cs clientState
		lat := make([]float64, 0, 1<<14)
		var att, fail int
		var first error
		for ctx.Err() == nil && time.Since(t0) < dur {
			p := g.take()
			s := time.Now()
			done, err := g.do(p, &cs)
			att++
			if err != nil {
				fail++
				if first == nil {
					first = err
				}
				continue
			}
			lat = append(lat, float64(done.Sub(s))/1e6)
		}
		mu.Lock()
		res.attempted += att
		res.failed += fail
		if res.firstErr == nil {
			res.firstErr = first
		}
		res.latMS = append(res.latMS, lat...)
		mu.Unlock()
	})
}

// window runs body on `clients` goroutines and measures the client's
// own CPU and heap allocations around them. The client runs on one P,
// like dmfserve (startServer), so each keeps to one of the two cores.
func (g *loadGen) window(ctx context.Context, body func(*windowResult, *sync.Mutex, time.Time)) *windowResult {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := &windowResult{}
	var mu sync.Mutex
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	cpu := selfCPU()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(res, &mu, t0)
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	res.clientCPU = selfCPU() - cpu
	runtime.ReadMemStats(&ms)
	res.clientMallocs = ms.Mallocs - mallocs
	sort.Float64s(res.latMS)
	return res
}

// pairedWindow is a window that alternates between dmfserve and the
// reference server, one slice each, so that both see the host at nearly
// the same moments.
type pairedWindow struct {
	dmf, ref *windowResult // each server's slices merged
	// Per pair of slices, dmfserve's figure over the reference's.
	rps, p50, p90 []float64
}

// paired runs pairs of slices, one against g's server and then one
// against ref's, for dur in all.
func paired(ctx context.Context, g, ref *loadGen, dur time.Duration) *pairedWindow {
	pw := &pairedWindow{dmf: &windowResult{}, ref: &windowResult{}}
	for k := 0; k < max(int(dur/(2*sliceDur)), 1) && ctx.Err() == nil; k++ {
		d := g.closedLoop(ctx, sliceDur)
		r := ref.closedLoop(ctx, sliceDur)
		pw.dmf.add(d)
		pw.ref.add(r)
		if len(d.latMS) == 0 || len(r.latMS) == 0 {
			continue
		}
		pw.rps = append(pw.rps, d.rps()/r.rps())
		pw.p50 = append(pw.p50, quantile(d.latMS, 0.5)/quantile(r.latMS, 0.5))
		pw.p90 = append(pw.p90, quantile(d.latMS, 0.9)/quantile(r.latMS, 0.9))
	}
	return pw
}
