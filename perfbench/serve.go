package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dmfsgd"
	"dmfsgd/internal/ckpt"
	"dmfsgd/internal/load"
)

const (
	// serveN is serve-frozen's Meridian node count.
	serveN = 2500
	// poolSize is the length of the request sequence the clients cycle.
	poolSize = 40_000
	// restartChecks is how many requests are verified after a restart.
	restartChecks = 300
	// setupRuns is how many times set-up is timed per run, split into
	// setupsBefore fresh starts before the serving window and the rest
	// after the restarts: the host's speed swings in phases lasting
	// seconds, so samples spread over the run are less alike in error.
	setupRuns    = 7
	setupsBefore = 4
	// resumeRuns is how many restarts are timed per run: a restart takes
	// a fraction of a second, so more samples are cheap.
	resumeRuns = 15
	// warmUp is the untimed closed loop before a window, which opens the
	// connections and lets both processes reach their steady state.
	warmUp = time.Second
	// trainPairs bursts of trainBurst Session.Run updates alternate with
	// bursts of refTrainBurst reference updates, each about 0.1 s.
	trainPairs    = 40
	trainBurst    = 150_000
	refTrainBurst = 250_000
	// aucPairs is the held-out sample the benchmark scores.
	aucPairs = 20_000
	// aucFloor is the quality every workload's model must clear.
	aucFloor = 0.80
	// modelSeed seeds every dataset and every training run. It is fixed
	// so that the model, and so its AUC, depends on the code alone: one
	// dataset draw to the next moves AUC by several percent, which would
	// hide a real quality loss. --seed varies the request sequences and
	// the held-out sample.
	modelSeed = 1
)

// healthSteps reads /healthz's steps counter.
func healthSteps(hc *http.Client, s *server) (int64, error) {
	resp, err := hc.Get(s.base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Steps int64 `json:"steps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("decode /healthz: %w", err)
	}
	return h.Steps, nil
}

// loadChain folds the checkpoint chain at path into one state.
func loadChain(path string) (*ckpt.Checkpoint, *refModel, error) {
	c, _, err := ckpt.LoadChain(path)
	if err != nil {
		return nil, nil, fmt.Errorf("load checkpoint %s: %w", path, err)
	}
	return c, &refModel{rank: c.Rank, u: c.U, v: c.V}, nil
}

// startTimed starts bin (dmfserve or the reference server) in dir and
// returns it once /healthz answers, with the time from exec.
func (b *bench) startTimed(ctx context.Context, bin, dir string, args []string) (*server, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	// The free port is picked before dmfserve binds it; another process
	// may take it in between, so a lost race is retried on a fresh port.
	for attempt := 0; ; attempt++ {
		s, err := startServer(bin, dir, args)
		if err != nil {
			return nil, 0, err
		}
		d, err := s.waitReady(ctx, b.hc, 150*time.Second)
		if err == nil {
			return s, d.Seconds(), nil
		}
		_ = s.stop()
		if attempt == 2 || !strings.Contains(s.logTail(), "address already in use") {
			return nil, 0, err
		}
	}
}

// freshStarts starts dmfserve from nothing `runs` times, each in a
// fresh directory, and records each set-up time and start-up training
// rate. The last server is kept running when keep is set, and returned
// with its directory.
func (b *bench) freshStarts(ctx context.Context, args []string, runs int, keep bool) (*server, string, error) {
	for k := 0; k < runs; k++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", len(b.setupTimes)))
		s, d, err := b.startTimed(ctx, b.serveBin, dir, args)
		if err != nil {
			return nil, "", err
		}
		b.setupTimes = append(b.setupTimes, d)
		steps, err := healthSteps(b.hc, s)
		if err != nil {
			_ = s.stop()
			return nil, "", err
		}
		if ts := s.trainSeconds(); ts > 0 {
			b.startRates = append(b.startRates, float64(steps)/ts)
		}
		if keep && k == runs-1 {
			return s, dir, nil
		}
		if err := s.stop(); err != nil {
			return nil, "", err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", err
		}
	}
	return nil, "", nil
}

// httpWindow is one timed window of requests plus the server-side view
// of it.
type httpWindow struct {
	res       *windowResult
	delta     promDelta
	serverCPU time.Duration
}

// measure brackets a window with /metrics scrapes and the server's CPU
// time.
func (b *bench) measure(s *server, run func() *windowResult) (*httpWindow, error) {
	target := &load.HTTPTarget{Base: s.base, Client: b.hc}
	before, err := target.ScrapeMetrics()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	res := run()
	cpu1, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	after, err := target.ScrapeMetrics()
	if err != nil {
		return nil, err
	}
	b.count(res.attempted, res.failed, res.firstErr)
	if len(res.latMS) == 0 {
		return nil, fmt.Errorf("no request completed in the window (first error: %v)", res.firstErr)
	}
	return &httpWindow{res: res, delta: load.DeltaCounters(before, after), serverCPU: cpu1 - cpu0}, nil
}

var endpoints = []struct{ metric, label string }{
	{"predict_get", `{endpoint="GET /predict"}`},
	{"predict_post", `{endpoint="POST /predict"}`},
	{"rank", `{endpoint="GET /rank"}`},
}

// httpLayers derives the client, net/http and handler layer metrics
// from a window.
func (b *bench) httpLayers(w *httpWindow) {
	n := float64(len(w.res.latMS))
	b.layer["load.cpu_us_per_req"] = float64(w.res.clientCPU.Microseconds()) / n
	b.layer["load.allocs_per_req"] = float64(w.res.clientMallocs) / n
	b.layer["dmfserve.cpu_us_per_req"] = float64(w.serverCPU.Microseconds()) / n
	var hSum, hCount, bytesSum, bytesCount float64
	for _, ep := range endpoints {
		b.layer["dmfserve.handler_us."+ep.metric] = 1e6 * w.delta.mean("dmf_http_request_seconds", ep.label)
		hSum += w.delta["dmf_http_request_seconds_sum"+ep.label]
		hCount += w.delta["dmf_http_request_seconds_count"+ep.label]
		bytesSum += w.delta["dmf_http_response_bytes_sum"+ep.label]
		bytesCount += w.delta["dmf_http_response_bytes_count"+ep.label]
	}
	b.layer["dmfserve.response_bytes_per_req"] = bytesSum / bytesCount
	// Client-observed time per request, from send to the answer read.
	var clientSum float64
	for _, l := range w.res.latMS {
		clientSum += l
	}
	b.layer["nethttp.residual_us"] = 1e3*clientSum/n - 1e6*hSum/hCount
	if self, cnt := b.tr.selfTimes(); cnt["load.request"] > 0 {
		for _, name := range []string{"load.request", "nethttp.roundtrip", "load.read_body", "load.verify"} {
			b.note("span self time %-18s %8.1f us/span over %d spans", name,
				float64(self[name].Microseconds())/float64(cnt[name]), cnt[name])
		}
	}
}

// serveWindows warms g's connections to s, then runs the timed window
// of length dur, paired with the reference server on the checkpoint at
// ckptPath, and records the HTTP end-to-end metrics; in a traced run a
// second, traced window of dmfserve alone gives the layer metrics. The
// benchmark keeps to one CPU and both servers to another throughout.
func (b *bench) serveWindows(ctx context.Context, s *server, g *loadGen, ckptPath string, dur time.Duration, label string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rs, _, err := b.startTimed(ctx, exe, filepath.Join(b.dir, "reference"), []string{"-reference", ckptPath})
	if err != nil {
		return fmt.Errorf("reference server: %w", err)
	}
	defer rs.stop()
	restore, err := pinApart(s.cmd.Process.Pid, rs.cmd.Process.Pid)
	if err != nil {
		return err
	}
	defer restore()
	ref := &loadGen{hc: b.hc, pool: g.pool, vf: g.vf, base: rs.base}
	for _, lg := range []*loadGen{g, ref} {
		warm := lg.closedLoop(ctx, warmUp)
		b.count(warm.attempted, warm.failed, warm.firstErr)
	}
	var pw *pairedWindow
	w, err := b.measure(s, func() *windowResult {
		pw = paired(ctx, g, ref, dur)
		return pw.dmf
	})
	if err != nil {
		return err
	}
	b.count(pw.ref.attempted, pw.ref.failed, pw.ref.firstErr)
	if len(pw.rps) == 0 {
		return fmt.Errorf("no pair of slices completed a request on both servers")
	}
	b.e2e["requests_per_s"] = refRequestsPerS * median(pw.rps)
	b.e2e["latency_p50_ms"] = refLatencyP50MS * median(pw.p50)
	b.e2e["latency_p90_ms"] = refLatencyP90MS * median(pw.p90)
	b.note("%s: %d pairs of %v slices; dmfserve over the reference, median over pairs: req/s %.4f, p50 %.4f, p90 %.4f",
		label, len(pw.rps), sliceDur, median(pw.rps), median(pw.p50), median(pw.p90))
	for _, side := range []struct {
		name string
		r    *windowResult
	}{{"dmfserve", pw.dmf}, {"reference", pw.ref}} {
		b.note("%s: %-9s %d requests in %.2f s: %.0f req/s, latency p50 %.4f ms, p90 %.4f ms, p99 %.4f ms",
			label, side.name, len(side.r.latMS), side.r.elapsed.Seconds(), side.r.rps(),
			quantile(side.r.latMS, 0.5), quantile(side.r.latMS, 0.9), quantile(side.r.latMS, 0.99))
	}
	b.note("%s: per pair: req/s ratio %s", label, fmtList(pw.rps))
	if b.tr != nil {
		g.tr = b.tr
		defer func() { g.tr = nil }()
		tw, err := b.measure(s, func() *windowResult { return g.closedLoop(ctx, pw.dmf.elapsed) })
		if err != nil {
			return err
		}
		b.overhead(w.res, tw.res)
		b.httpLayers(tw)
	}
	return nil
}

// overhead prints the gap between an untraced and a traced window.
func (b *bench) overhead(plain, traced *windowResult) {
	b.note("tracing overhead: p50 %+.1f%%, throughput %+.1f%% (traced %.4f ms / %.0f req/s vs untraced %.4f ms / %.0f req/s)",
		100*(quantile(traced.latMS, 0.5)/quantile(plain.latMS, 0.5)-1), 100*(traced.rps()/plain.rps()-1),
		quantile(traced.latMS, 0.5), traced.rps(), quantile(plain.latMS, 0.5), plain.rps())
}

// restartChecked restarts dmfserve from a copy of the files in src and
// checks that it serves exactly the state its checkpoint chain holds:
// /healthz steps equal the chain's, and a sample of answers equals the
// chain's factors. It returns the resume time and the chain, and the
// running server when keep is set.
func (b *bench) restartChecked(ctx context.Context, src, dir string, args []string, pool []prepared, keep bool) (float64, *server, *ckpt.Checkpoint, *refModel, error) {
	if err := copyTree(src, dir); err != nil {
		return 0, nil, nil, nil, err
	}
	s, d, err := b.startTimed(ctx, b.serveBin, dir, args)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	fail := func(err error) (float64, *server, *ckpt.Checkpoint, *refModel, error) {
		_ = s.stop()
		return 0, nil, nil, nil, err
	}
	c, ref, err := loadChain(filepath.Join(dir, "ckpt"))
	if err != nil {
		return fail(err)
	}
	steps, err := healthSteps(b.hc, s)
	if err != nil {
		return fail(err)
	}
	if uint64(steps) != c.Steps {
		b.fail("after restart /healthz reports %d steps, the checkpoint chain %d", steps, c.Steps)
	}
	g := &loadGen{hc: b.hc, pool: pool, vf: verifier{ref: ref}, base: s.base}
	var cs clientState
	for k := 0; k < restartChecks; k++ {
		if _, err := g.do(g.take(), &cs); err != nil {
			b.count(1, 1, err)
		} else {
			b.count(1, 0, nil)
		}
	}
	if keep {
		return d, s, c, ref, nil
	}
	if err := s.stop(); err != nil {
		return 0, nil, nil, nil, err
	}
	return d, nil, c, ref, nil
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// auc scores a seeded sample of held-out pairs (present in the ground
// truth, not a training neighbor) with ref and returns the Mann–Whitney
// AUC against the dataset's classes at threshold tau.
func (b *bench) auc(ds *dmfsgd.Dataset, c *ckpt.Checkpoint, ref *refModel) (float64, error) {
	sess, err := dmfsgd.NewSession(ds, dmfsgd.WithSeed(c.Seed), dmfsgd.WithRank(c.Rank))
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	n := ds.N()
	neighbor := make(map[[2]int]bool, n*sess.K())
	for i := 0; i < n; i++ {
		for _, j := range sess.Neighbors(i) {
			neighbor[[2]int{i, j}] = true
		}
	}
	rng := rand.New(rand.NewSource(b.seed ^ 0x5eed_a0c))
	labels := make([]bool, 0, aucPairs)
	scores := make([]float64, 0, aucPairs)
	for tries := 0; len(labels) < aucPairs && tries < 50*aucPairs; tries++ {
		i, j := rng.Intn(n), rng.Intn(n)
		x := ds.Matrix.At(i, j)
		if i == j || neighbor[[2]int{i, j}] || x != x || x < 0 {
			continue
		}
		good := x <= c.Tau
		if ds.Metric == dmfsgd.ABW {
			good = x >= c.Tau
		}
		labels = append(labels, good)
		scores = append(scores, ref.score(i, j))
	}
	a := mannWhitneyAUC(labels, scores)
	b.note("auc %.4f over %d held-out pairs (floor %.2f)", a, len(labels), aucFloor)
	if !(a >= aucFloor) {
		b.fail("auc %.4f below the floor %.2f", a, aucFloor)
	}
	return a, nil
}

// trainingRatios times Session.Run on ds, the loop dmfserve runs at
// start-up, with the model's seed and rank and on one P like dmfserve,
// in bursts that alternate with bursts of the reference trainer, and
// returns the engine's rate over the reference's for each pair. Timing
// dmfserve's own start-up does not pair: a fresh process reads
// 1.2M–2.7M updates/s from one start to the next within one run.
func trainingRatios(ctx context.Context, ds *dmfsgd.Dataset, c *ckpt.Checkpoint) ([]float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sess, err := dmfsgd.NewSession(ds, dmfsgd.WithSeed(c.Seed), dmfsgd.WithRank(c.Rank))
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	rt := newRefTrainer(ds.N(), sess.K(), c.Rank, c.Tau, ds.Matrix.At)
	if err := sess.Run(ctx, trainBurst); err != nil {
		return nil, err
	}
	rt.rate(refTrainBurst)
	ratios := make([]float64, 0, trainPairs)
	for k := 0; k < trainPairs; k++ {
		t0 := time.Now()
		if err := sess.Run(ctx, trainBurst); err != nil {
			return nil, err
		}
		engine := trainBurst / time.Since(t0).Seconds()
		ratios = append(ratios, engine/rt.rate(refTrainBurst))
	}
	return ratios, nil
}

// serveFrozen: train once, serve a frozen snapshot to a closed loop.
func (b *bench) serveFrozen(ctx context.Context) error {
	args := []string{"-dataset", "meridian", "-n", strconv.Itoa(serveN),
		"-seed", strconv.Itoa(modelSeed), "-checkpoint", "ckpt"}
	mkds := func() *dmfsgd.Dataset { return dmfsgd.NewMeridianDataset(serveN, modelSeed) }
	ds := mkds()
	s, dir, err := b.freshStarts(ctx, args, setupsBefore, true)
	if err != nil {
		return err
	}
	defer s.stop()
	c, ref, err := loadChain(filepath.Join(dir, "ckpt"))
	if err != nil {
		return err
	}
	if steps, err := healthSteps(b.hc, s); err != nil {
		return err
	} else if uint64(steps) != c.Steps {
		b.fail("/healthz reports %d steps, the checkpoint %d", steps, c.Steps)
	}
	pool, err := requestPool(b.seed, serveN, poolSize)
	if err != nil {
		return err
	}
	g := &loadGen{hc: b.hc, pool: pool, vf: verifier{ref: ref}, base: s.base}
	if err := b.serveWindows(ctx, s, g, filepath.Join(dir, "ckpt"), b.windowLen(), "closed loop"); err != nil {
		return err
	}
	if b.e2e["rss_mb"], err = peakRSSMB(strconv.Itoa(s.cmd.Process.Pid)); err != nil {
		return err
	}
	if err := s.stop(); err != nil {
		return err
	}
	// Restart from the checkpoint: the budget is already met, so the
	// process resumes without retraining.
	var resumes []float64
	for k := 0; k < resumeRuns; k++ {
		d, _, rc, _, err := b.restartChecked(ctx, dir, filepath.Join(b.dir, fmt.Sprintf("restart%d", k)), args, pool, false)
		if err != nil {
			return err
		}
		if rc.Steps != c.Steps {
			b.fail("restart %d restored %d steps, the server had %d", k, rc.Steps, c.Steps)
		}
		resumes = append(resumes, d)
	}
	b.e2e["resume_s"] = median(resumes)
	b.note("resume: %s s", fmtList(resumes))
	if _, _, err := b.freshStarts(ctx, args, setupRuns-setupsBefore, false); err != nil {
		return err
	}
	if len(b.startRates) == 0 {
		return fmt.Errorf("no start-up training seen on dmfserve's log")
	}
	b.e2e["setup_s"] = median(b.setupTimes)
	ratios, err := trainingRatios(ctx, ds, c)
	if err != nil {
		return err
	}
	b.e2e["updates_per_s"] = refTrainUpdatesPS * median(ratios)
	b.note("Session.Run over the reference trainer, %d pairs: %s", len(ratios), fmtList(ratios))
	b.note("set-up: %s s", fmtList(b.setupTimes))
	b.note("start-up training (reference only): %s updates/s, %d updates each", fmtList(b.startRates), c.Steps)
	if b.e2e["auc"], err = b.auc(ds, c, ref); err != nil {
		return err
	}
	if b.tr != nil {
		return b.probes(ctx, mkds, c, ref, pool, true)
	}
	return nil
}
