package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dmfsgd"
	"dmfsgd/internal/ckpt"
	"dmfsgd/internal/load"
)

const (
	// probeBudget is how long each snapshot kernel is looped.
	probeBudget = 150 * time.Millisecond
	// probeMinUpdates floors the in-process training runs.
	probeMinUpdates = 500_000
	// probeCkptSaves is one base plus three deltas.
	probeCkptSaves = 4
	// probeClusterTime is the cluster probe's training window.
	probeClusterTime = 2 * time.Second
)

// probes times single layers in-process, on the workload's own dataset,
// model and request sequence: the snapshot kernel, the dataset build,
// sequential training with and without the WAL, snapshot refresh,
// checkpoint saves and resume, and (on workloads whose own path has no
// trainer cluster) a two-trainer loopback cluster. A metric the
// workload's own path already measured is kept.
func (b *bench) probes(ctx context.Context, mkds func() *dmfsgd.Dataset, c *ckpt.Checkpoint, ref *refModel, pool []prepared, clusterProbe bool) error {
	set := func(name string, v float64) {
		if _, ok := b.layer[name]; !ok {
			b.layer[name] = v
		}
	}
	var builds []float64
	var ds *dmfsgd.Dataset
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		ds = mkds()
		builds = append(builds, float64(time.Since(t0).Microseconds())/1e3)
	}
	set("dataset.build_ms", median(builds))

	if err := b.kernelProbe(c, ref, pool, set); err != nil {
		return err
	}
	if err := b.trainProbe(ctx, ds, mkds, c, set); err != nil {
		return err
	}
	if clusterProbe {
		rig, err := newClusterRig(ctx, mkds, modelSeed)
		if err != nil {
			return err
		}
		defer rig.close()
		b.trainClusterWindow(ctx, rig, 0)
		rig.setTracer(b.tr)
		w := b.trainClusterWindow(ctx, rig, probeClusterTime)
		rig.setTracer(nil)
		b.note("cluster probe on this workload's dataset: %.0f updates/s", w.updates/w.elapsed.Seconds())
		b.clusterLayers(w)
	}
	return nil
}

// kernelProbe loops each request kind of the pool over a snapshot built
// from the served factors.
func (b *bench) kernelProbe(c *ckpt.Checkpoint, ref *refModel, pool []prepared, set func(string, float64)) error {
	u := append([]float64(nil), ref.u...)
	v := append([]float64(nil), ref.v...)
	snap, err := dmfsgd.NewSnapshotFlat(dmfsgd.Metric(c.Metric), c.Tau, int(c.Steps), c.Rank, u, v)
	if err != nil {
		return err
	}
	var preds [][2]int
	var batches [][]dmfsgd.PathPair
	var ranks []prepared
	var maxPairs, maxCands int
	for _, p := range pool {
		switch p.kind {
		case load.KindPredict:
			preds = append(preds, [2]int{p.i, p.j})
		case load.KindPredictBatch:
			pp := make([]dmfsgd.PathPair, len(p.pairs))
			for k, q := range p.pairs {
				pp[k] = dmfsgd.PathPair{I: q[0], J: q[1]}
			}
			batches = append(batches, pp)
			maxPairs = max(maxPairs, len(pp))
		default:
			ranks = append(ranks, p)
			maxCands = max(maxCands, len(p.cands))
		}
	}
	var sink float64
	timeLoop := func(name string, calls int, pass func()) float64 {
		var n int
		var total time.Duration
		for total < probeBudget {
			sp := b.tr.begin(name, uint64(n), -1)
			t0 := time.Now()
			pass()
			total += time.Since(t0)
			b.tr.end(sp)
			n += calls
		}
		return float64(total.Nanoseconds()) / float64(n)
	}
	set("snapshot.predict_ns", timeLoop("snapshot.predict", len(preds), func() {
		for _, p := range preds {
			sink += snap.Predict(p[0], p[1])
		}
	}))
	scores := make([]float64, maxPairs)
	set("snapshot.predict_batch_ns", timeLoop("snapshot.predict_batch", len(batches), func() {
		for _, pp := range batches {
			sink += snap.PredictBatch(pp, scores[:len(pp)])[0]
		}
	}))
	out := make([]int, maxCands)
	set("snapshot.rank_ns", timeLoop("snapshot.rank", len(ranks), func() {
		for _, p := range ranks {
			sink += float64(snap.RankInto(p.i, p.cands, out[:len(p.cands)])[0])
		}
	}))
	kernelSink = sink
	return nil
}

// kernelSink keeps the timed kernel calls from being optimised away.
var kernelSink float64

// trainProbe times Session.Run with and without a segmented WAL, one
// refresh-sized snapshot, and a checkpoint chain saved and resumed.
func (b *bench) trainProbe(ctx context.Context, ds *dmfsgd.Dataset, mkds func() *dmfsgd.Dataset, c *ckpt.Checkpoint, set func(string, float64)) error {
	opts := []dmfsgd.Option{dmfsgd.WithSeed(modelSeed), dmfsgd.WithRank(c.Rank)}
	plain, err := dmfsgd.NewSession(ds, opts...)
	if err != nil {
		return err
	}
	defer plain.Close()
	refreshUpdates := plain.N() * plain.K()
	updates := max(4*refreshUpdates, probeMinUpdates)
	timed := func(name string, s *dmfsgd.Session, n int) (time.Duration, error) {
		sp := b.tr.begin(name, 0, -1)
		defer b.tr.end(sp)
		t0 := time.Now()
		err := s.Run(ctx, n)
		return time.Since(t0), err
	}
	if _, err := timed("engine.warm", plain, refreshUpdates); err != nil {
		return err
	}
	seqT, err := timed("engine.run", plain, updates)
	if err != nil {
		return err
	}
	set("engine.seq_ns_per_update", float64(seqT.Nanoseconds())/float64(updates))

	walDir := filepath.Join(b.dir, "probe-wal")
	ms, err := dmfsgd.NewMatrixSource(ds, 0, modelSeed)
	if err != nil {
		return err
	}
	ws, err := dmfsgd.WithWALDir(ms, walDir, 4<<20)
	if err != nil {
		return err
	}
	logged, err := dmfsgd.NewSessionFromSource(ds, ws, opts...)
	if err != nil {
		return err
	}
	defer logged.Close()
	if _, err := timed("wal.warm", logged, refreshUpdates); err != nil {
		return err
	}
	before := registrySnapshot()
	walT, err := timed("wal.run", logged, updates)
	if err != nil {
		return err
	}
	d := load.DeltaCounters(before, registrySnapshot())
	set("wal.ns_per_update", float64((walT-seqT).Nanoseconds())/float64(updates))
	set("wal.commits_per_s", d["dmf_wal_commits_total"]/walT.Seconds())
	set("wal.segments_per_s", d["dmf_wal_segments_total"]/walT.Seconds())
	if err := os.RemoveAll(walDir); err != nil {
		return err
	}

	// One refresh: a snapshot, refreshUpdates more updates, a snapshot.
	plain.Snapshot()
	if err := plain.Run(ctx, refreshUpdates); err != nil {
		return err
	}
	before = registrySnapshot()
	plain.Snapshot()
	d = load.DeltaCounters(before, registrySnapshot())
	set("snapshot.shards_copied_per_refresh", d["dmf_engine_snapshot_shards_copied_total"])

	// A chain of one base and deltas, refreshUpdates apart, then resumed.
	path := filepath.Join(b.dir, "probe-ckpt", "ckpt")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	chain := dmfsgd.NewCheckpointChain(path, probeCkptSaves)
	before = registrySnapshot()
	var full, deltas float64
	for k := 0; k < probeCkptSaves; k++ {
		if k > 0 {
			if err := plain.Run(ctx, refreshUpdates); err != nil {
				return err
			}
		}
		sp := b.tr.begin("ckpt.save", uint64(k), -1)
		err := chain.Save(plain)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		file := path
		if k > 0 {
			file = ckpt.DeltaPath(path, k)
		}
		fi, err := os.Stat(file)
		if err != nil {
			return err
		}
		if k == 0 {
			full = float64(fi.Size())
		} else {
			deltas += float64(fi.Size())
		}
	}
	d = load.DeltaCounters(before, registrySnapshot())
	saves := d["dmf_ckpt_save_seconds_count"]
	if saves != probeCkptSaves {
		return fmt.Errorf("checkpoint probe: %v saves recorded, want %d", saves, probeCkptSaves)
	}
	set("ckpt.save_ms", 1e3*d["dmf_ckpt_save_seconds_sum"]/saves)
	set("ckpt.bytes_per_save", d["dmf_ckpt_save_bytes_total"]/saves)
	set("ckpt.delta_bytes_ratio", deltas/float64(probeCkptSaves-1)/full)
	var resumes []float64
	for k := 0; k < 3; k++ {
		rds := mkds()
		sp := b.tr.begin("ckpt.resume", uint64(k), -1)
		t0 := time.Now()
		s, err := dmfsgd.NewCheckpointChain(path, probeCkptSaves).Resume(rds, nil, nil, opts...)
		resumes = append(resumes, float64(time.Since(t0).Microseconds())/1e3)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		if s.Steps() != plain.Steps() {
			b.fail("checkpoint probe resumed %d steps, saved %d", s.Steps(), plain.Steps())
		}
		s.Close()
	}
	set("ckpt.resume_ms", median(resumes))
	return nil
}
