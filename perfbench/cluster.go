package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dmfsgd"
	"dmfsgd/internal/ckpt"
	"dmfsgd/internal/cluster"
	"dmfsgd/internal/load"
	"dmfsgd/internal/metrics"
	"dmfsgd/internal/transport"
)

const (
	// clusterBatch is the measurements per lockstep round.
	clusterBatch = 8192
	// clusterChunk is the updates both trainers drain between the
	// benchmark's checks of the clock: whole rounds, the same on both.
	clusterChunk = 16 * clusterBatch
	// clusterSetupRuns is how many times the cluster is built per run:
	// building it takes a fraction of a second, so more samples are cheap.
	clusterSetupRuns = 5
	// clusterShards splits the store so that each trainer owns several
	// shards (the default for HPS3's 231 nodes is one).
	clusterShards = 8
	// clusterRank is dmfserve's default coordinate dimension, so that a
	// member's checkpoint restores into dmfserve unchanged.
	clusterRank = 10
)

// timedSource wraps a member's measurement source. Consecutive
// NextBatch calls bracket one lockstep round, so it times both the
// source and the rounds.
type timedSource struct {
	src    dmfsgd.Source
	tr     *tracer
	member uint64

	calls  int
	busy   time.Duration
	round  int       // open round span, -1 when none
	roundT time.Time // start of the open round
	rounds []float64 // completed round durations, ms
	seq    uint64
	// The open round's span and request id, read by the transport's
	// sends, which may run on other goroutines.
	cur    atomic.Int64
	curReq atomic.Uint64
}

func (s *timedSource) Unwrap() dmfsgd.Source { return s.src }

func (s *timedSource) closeRound(now time.Time) {
	if !s.roundT.IsZero() {
		s.rounds = append(s.rounds, float64(now.Sub(s.roundT))/1e6)
		s.tr.end(s.round)
	}
	s.roundT = time.Time{}
	s.round = -1
	s.cur.Store(-1)
}

func (s *timedSource) NextBatch(ctx context.Context, buf []dmfsgd.Measurement) (int, error) {
	t0 := time.Now()
	s.closeRound(t0)
	s.seq++
	req := s.member<<48 | s.seq
	s.roundT = t0
	s.round = s.tr.begin("cluster.round", req, -1)
	s.cur.Store(int64(s.round))
	s.curReq.Store(req)
	sp := s.tr.begin("source.next_batch", req, s.round)
	n, err := s.src.NextBatch(ctx, buf)
	s.tr.end(sp)
	s.calls++
	s.busy += time.Since(t0)
	return n, err
}

// timedTransport wraps a member's cluster lane and times every send.
type timedTransport struct {
	transport.Transport
	src    *timedSource
	tr     *tracer
	frames atomic.Int64
	bytes  atomic.Int64
	sendNS atomic.Int64
}

func (t *timedTransport) Send(to string, data []byte) error {
	t0 := time.Now()
	err := t.Transport.Send(to, data)
	t1 := time.Now()
	t.frames.Add(1)
	t.bytes.Add(int64(len(data)))
	t.sendNS.Add(int64(t1.Sub(t0)))
	t.tr.record("transport.send", t.src.curReq.Load(), int(t.src.cur.Load()), t0, t1)
	return err
}

// clusterRig is two trainers, each a Session over its own copy of the
// dataset, joined by TCP stream transports on loopback.
type clusterRig struct {
	sessions []*dmfsgd.Session
	trainers []*cluster.Trainer
	srcs     []*timedSource
	tps      []*timedTransport
}

func newClusterRig(ctx context.Context, mkds func() *dmfsgd.Dataset, seed int64) (*clusterRig, error) {
	ids := []uint32{0, 1}
	r := &clusterRig{}
	for m, id := range ids {
		ds := mkds()
		ms, err := dmfsgd.NewMatrixSource(ds, 0, seed)
		if err != nil {
			r.close()
			return nil, err
		}
		src := &timedSource{src: ms, member: uint64(m), round: -1}
		sess, err := dmfsgd.NewSessionFromSource(ds, src, dmfsgd.WithSeed(seed),
			dmfsgd.WithRank(clusterRank), dmfsgd.WithShards(clusterShards), dmfsgd.WithWorkers(1))
		if err != nil {
			r.close()
			return nil, err
		}
		r.sessions = append(r.sessions, sess)
		tcp, err := transport.ListenTCPStream("127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		tp := &timedTransport{Transport: tcp, src: src}
		r.tps = append(r.tps, tp)
		r.srcs = append(r.srcs, src)
		tr, err := cluster.New(cluster.Config{ID: id, Trainers: ids, Transport: tp,
			Engine: sess.Engine(), Timeout: 30 * time.Second})
		if err != nil {
			r.close()
			return nil, err
		}
		r.trainers = append(r.trainers, tr)
	}
	for m, tr := range r.trainers {
		for p, id := range ids {
			if p != m {
				tr.AddPeer(id, r.tps[p].Addr())
			}
		}
		if err := tr.WaitRoster(ctx); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *clusterRig) close() {
	for _, s := range r.sessions {
		s.Close()
	}
	for _, tp := range r.tps {
		tp.Close()
	}
}

func (r *clusterRig) setTracer(tr *tracer) {
	for m := range r.srcs {
		r.srcs[m].tr = tr
		r.tps[m].tr = tr
	}
}

// clusterWindow is what one timed training window saw.
type clusterWindow struct {
	chunks, failed int
	firstErr       error
	updates        float64
	elapsed        time.Duration
	delta          promDelta
	srcCalls       int
	srcBusy        time.Duration
	frames, bytes  int64
	sendNS         int64
	roundsMS       []float64
	chunkRates     []float64 // updates per second of each chunk
}

func registrySnapshot() map[string]float64 {
	var buf bytes.Buffer
	_ = metrics.Default().WritePrometheus(&buf)
	m, err := load.ParsePrometheus(&buf)
	if err != nil {
		panic(err) // the registry's own exposition: a bug if unparseable
	}
	return m
}

// train drains chunks of `chunk` updates through both trainers: at
// least one, then more until dur has passed.
func (r *clusterRig) train(ctx context.Context, dur time.Duration, chunk int) *clusterWindow {
	w := &clusterWindow{}
	before := registrySnapshot()
	steps0 := r.sessions[0].Steps()
	var calls0 int
	var busy0 time.Duration
	var frames0, bytes0, send0 int64
	for m := range r.srcs {
		calls0 += r.srcs[m].calls
		busy0 += r.srcs[m].busy
		r.srcs[m].rounds = r.srcs[m].rounds[:0]
		frames0 += r.tps[m].frames.Load()
		bytes0 += r.tps[m].bytes.Load()
		send0 += r.tps[m].sendNS.Load()
	}
	t0 := time.Now()
	for first := true; ctx.Err() == nil && (first || time.Since(t0) < dur); first = false {
		c0, s0 := time.Now(), r.sessions[0].Steps()
		errs := make([]error, len(r.trainers))
		var wg sync.WaitGroup
		for m := range r.trainers {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				errs[m] = r.sessions[m].RunCluster(ctx, r.trainers[m], chunk, clusterBatch)
				r.srcs[m].closeRound(time.Now())
			}(m)
		}
		wg.Wait()
		w.chunkRates = append(w.chunkRates, float64(r.sessions[0].Steps()-s0)/time.Since(c0).Seconds())
		w.chunks++
		if err := errors.Join(errs...); err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
		}
	}
	w.elapsed = time.Since(t0)
	w.updates = float64(r.sessions[0].Steps() - steps0)
	w.delta = load.DeltaCounters(before, registrySnapshot())
	for m := range r.srcs {
		w.srcCalls += r.srcs[m].calls
		w.srcBusy += r.srcs[m].busy
		w.roundsMS = append(w.roundsMS, r.srcs[m].rounds...)
		w.frames += r.tps[m].frames.Load()
		w.bytes += r.tps[m].bytes.Load()
		w.sendNS += r.tps[m].sendNS.Load()
	}
	w.srcCalls -= calls0
	w.srcBusy -= busy0
	w.frames -= frames0
	w.bytes -= bytes0
	w.sendNS -= send0
	sort.Float64s(w.roundsMS)
	return w
}

// identical reports whether both members hold bit-identical models.
func (r *clusterRig) identical() error {
	a, b := r.sessions[0].Snapshot(), r.sessions[1].Snapshot()
	au, av := a.Flat()
	bu, bv := b.Flat()
	if a.Steps() != b.Steps() {
		return fmt.Errorf("members at %d and %d steps", a.Steps(), b.Steps())
	}
	for k := range au {
		if math.Float64bits(au[k]) != math.Float64bits(bu[k]) || math.Float64bits(av[k]) != math.Float64bits(bv[k]) {
			return fmt.Errorf("members' coordinates differ at value %d", k)
		}
	}
	va, vb := a.Versions(), b.Versions()
	for k := range va {
		if va[k] != vb[k] {
			return fmt.Errorf("members' shard %d versions differ: %d vs %d", k, va[k], vb[k])
		}
	}
	return nil
}

// clusterLayers derives the cluster-side layer metrics of a window.
func (b *bench) clusterLayers(w *clusterWindow) {
	members := 2.0
	rounds := w.delta["dmf_cluster_rounds_total"] / members
	if rounds == 0 {
		return
	}
	perRound := func(sumSeconds float64) float64 { return 1e3 * sumSeconds / (members * rounds) }
	src := float64(w.srcBusy.Microseconds()) / 1e3 / float64(w.srcCalls)
	apply := perRound(w.delta["dmf_engine_batch_apply_seconds_sum"])
	routed := perRound(w.delta[`dmf_cluster_barrier_wait_seconds_sum{phase="routed"}`])
	clock := perRound(w.delta[`dmf_cluster_barrier_wait_seconds_sum{phase="clock"}`])
	var sum float64
	for _, x := range w.roundsMS {
		sum += x
	}
	mean := sum / float64(len(w.roundsMS))
	b.layer["source.next_batch_ms_per_round"] = src
	b.layer["engine.apply_ms_per_round"] = apply
	b.layer["cluster.round_ms_p50"] = quantile(w.roundsMS, 0.5)
	b.layer["cluster.barrier_wait_ms.routed"] = routed
	b.layer["cluster.barrier_wait_ms.clock"] = clock
	b.layer["cluster.round_residual_ms"] = mean - src - apply - routed - clock
	b.layer["cluster.rounds"] = rounds
	b.layer["cluster.routed_updates_per_update"] = w.delta["dmf_cluster_routed_updates_total"] / w.updates
	b.layer["wire.clock_bytes_per_round"] = w.delta["dmf_cluster_clock_bytes_total"] / rounds
	b.layer["wire.routed_bytes_per_round"] = w.delta["dmf_cluster_routed_bytes_total"] / rounds
	b.layer["transport.send_us_per_frame"] = float64(w.sendNS) / 1e3 / float64(w.frames)
	b.layer["transport.frames_per_round"] = float64(w.frames) / rounds
	b.layer["transport.bytes_per_update"] = float64(w.bytes) / w.updates
	b.note("cluster rounds: %.0f per member, mean %.3f ms = source %.3f + apply %.3f + routed wait %.3f + clock wait %.3f + residual %.3f; p50 %.3f ms over %d rounds",
		rounds, mean, src, apply, routed, clock, b.layer["cluster.round_residual_ms"], quantile(w.roundsMS, 0.5), len(w.roundsMS))
}

// trainClusterWindow runs a training window and checks it.
func (b *bench) trainClusterWindow(ctx context.Context, r *clusterRig, dur time.Duration) *clusterWindow {
	w := r.train(ctx, dur, clusterChunk)
	b.count(2*w.chunks, 2*w.failed, w.firstErr)
	if ab := w.delta["dmf_cluster_rounds_aborted_total"]; ab != 0 {
		b.fail("%.0f cluster rounds aborted", ab)
	}
	if err := r.identical(); err != nil {
		b.fail("cluster members diverged: %v", err)
	}
	return w
}

// trainCluster: two trainers over loopback TCP drain an HPS3 stream in
// lockstep rounds; the trained model is then restored into dmfserve and
// served.
func (b *bench) trainCluster(ctx context.Context) error {
	mkds := func() *dmfsgd.Dataset { return dmfsgd.NewHPS3Dataset(0, modelSeed) }
	restore, err := pinSelf()
	if err != nil {
		return err
	}
	defer restore()
	var times []float64
	var rig *clusterRig
	for k := 0; k < clusterSetupRuns; k++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = newClusterRig(ctx, mkds, modelSeed); err != nil {
			return err
		}
		// Ready means the lanes are dialled: one round has crossed them.
		w := rig.train(ctx, 0, clusterBatch)
		times = append(times, time.Since(t0).Seconds())
		b.count(2*w.chunks, 2*w.failed, w.firstErr)
	}
	defer rig.close()
	b.e2e["setup_s"] = median(times)
	b.note("set-up: %s s (median of %d)", fmtList(times), len(times))
	trainDur := b.windowLen() * 6 / 10
	w := b.trainClusterWindow(ctx, rig, trainDur)
	b.e2e["updates_per_s"] = median(w.chunkRates)
	b.note("cluster training: %.0f updates in %.2f s (%.0f updates/s; median over chunks %.0f), %d chunks of %d updates; routed %.0f updates",
		w.updates, w.elapsed.Seconds(), w.updates/w.elapsed.Seconds(), b.e2e["updates_per_s"], w.chunks, clusterChunk, w.delta["dmf_cluster_routed_updates_total"])
	if b.tr != nil {
		rig.setTracer(b.tr)
		tw := b.trainClusterWindow(ctx, rig, trainDur)
		rig.setTracer(nil)
		b.note("tracing overhead: updates/s %+.1f%% (traced %.0f vs untraced %.0f)",
			100*(median(tw.chunkRates)/b.e2e["updates_per_s"]-1), median(tw.chunkRates), b.e2e["updates_per_s"])
		b.clusterLayers(tw)
	}
	restore()
	if b.e2e["rss_mb"], err = peakRSSMB("self"); err != nil {
		return err
	}
	// Deploy: member 0's checkpoint restored by dmfserve, which serves it.
	sess := rig.sessions[0]
	snap := sess.Snapshot()
	src := filepath.Join(b.dir, "deploy")
	if err := os.MkdirAll(src, 0o755); err != nil {
		return err
	}
	if err := dmfsgd.NewCheckpointChain(filepath.Join(src, "ckpt"), 0).Save(sess); err != nil {
		return err
	}
	args := []string{"-dataset", "hps3", "-n", "0", "-seed", strconv.Itoa(modelSeed),
		"-shards", strconv.Itoa(clusterShards), "-checkpoint", "ckpt"}
	n := snap.N()
	pool, err := requestPool(b.seed, n, poolSize)
	if err != nil {
		return err
	}
	var resumes []float64
	var s *server
	var c *ckpt.Checkpoint
	var ref *refModel
	for k := 0; k < resumeRuns; k++ {
		d, rs, rc, rref, err := b.restartChecked(ctx, src, filepath.Join(b.dir, fmt.Sprintf("restart%d", k)), args, pool, k == resumeRuns-1)
		if err != nil {
			return err
		}
		resumes = append(resumes, d)
		s, c, ref = rs, rc, rref
	}
	defer s.stop()
	b.e2e["resume_s"] = median(resumes)
	b.note("resume into dmfserve: %s s", fmtList(resumes))
	u, v := snap.Flat()
	for k := range u {
		if u[k] != ref.u[k] || v[k] != ref.v[k] {
			b.fail("the served checkpoint differs from the cluster member's model at value %d", k)
			break
		}
	}
	g := &loadGen{hc: b.hc, pool: pool, vf: verifier{ref: ref}, base: s.base}
	if err := b.serveWindows(ctx, s, g, filepath.Join(b.dir, fmt.Sprintf("restart%d", resumeRuns-1), "ckpt"), b.windowLen()-trainDur, "closed loop on the cluster's model"); err != nil {
		return err
	}
	if b.e2e["auc"], err = b.auc(mkds(), c, ref); err != nil {
		return err
	}
	if b.tr != nil {
		return b.probes(ctx, mkds, c, ref, pool, false)
	}
	return nil
}
