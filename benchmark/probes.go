package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"ffsage/internal/aging"
	"ffsage/internal/bench"
	"ffsage/internal/core"
	"ffsage/internal/experiments"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
	"ffsage/internal/obs"
	"ffsage/internal/stats"
	"ffsage/internal/trace"
)

// probeInput is a workload's primary input: the stream it replays under
// ffs+realloc and the image aged from it, with the times set-up and the
// traced run already measured for building and replaying it.
type probeInput struct {
	cfg    experiments.Config // geometry, disk model and benchmark sizes
	stream *trace.Workload
	image  *aging.Result
	build  time.Duration
	replay time.Duration
}

// runProbes measures every layer on the workload's primary input, from
// outside, one public call at a time.
func runProbes(in probeInput, rec *recorder) (map[string]float64, error) {
	m := map[string]float64{}
	root := rec.start(0, 0, "benchmark", "layer probes")
	defer rec.end(root)
	fs, cfg := in.image.Fs, in.cfg
	ops := float64(len(in.stream.Ops))
	days := cfg.WorkloadCfg.Days

	m["workload.build_s"] = in.build.Seconds()
	m["workload.ops_per_s"] = ops / in.build.Seconds()
	m["aging.replay_s"] = in.replay.Seconds()
	m["aging.ops_per_s"] = ops / in.replay.Seconds()
	st := fs.Stats
	m["ffs.blocks_allocated"] = float64(st.BlocksAllocated)
	m["ffs.frag_allocs"] = float64(st.FragAllocs)
	m["ffs.ns_per_block"] = float64(in.replay.Nanoseconds()) / float64(st.BlocksAllocated)
	m["ffs.pref_hit_ratio"] = ratio(st.PrefHits, st.BlocksAllocated)
	m["ffs.cg_fallbacks"] = float64(st.CgFallbacks)
	m["ffs.nospace_failures"] = float64(st.NoSpaceFailures)
	m["policy.cluster_attempts"] = float64(st.ClusterAttempts)
	m["policy.cluster_success_ratio"] = ratio(st.ClusterMoves, st.ClusterAttempts)
	m["policy.moves_per_op"] = float64(st.ClusterMoves) / ops

	var sweep []bench.SeqResult
	var hot bench.HotResult
	reg := obs.NewRegistry()
	var exported countWriter
	var img bytes.Buffer
	cp := &trace.Checkpoint{Day: days - 1, NextOp: len(in.stream.Ops), LayoutByDay: in.image.LayoutByDay.Values(),
		UtilByDay: in.image.UtilByDay.Values(), WorkloadHash: trace.HashWorkload(in.stream)}
	var ckpt countWriter
	files := layout.AllFiles(fs)
	fpb := fs.FragsPerBlock()
	probes := []struct {
		layer, name, metric string
		fn                  func() error
	}{
		{"aging", "aging.Stepper.Apply", "", func() error { return stepperProbe(in, m) }},
		{"ffs", "FileSystem.Clone", "ffs.clone_s", func() error { fs.Clone(); return nil }},
		{"ffs", "FileSystem.Check", "ffs.check_s", fs.Check},
		{"layout", "layout.FsAggregate", "layout.rescan_s", func() error { layout.FsAggregate(fs); return nil }},
		{"layout", "layout.IntraFileSeeks", "layout.seeks_s", func() error { layout.IntraFileSeeks(files, fpb); return nil }},
		{"layout", "layout.BySize", "layout.bysize_s", func() error {
			layout.BySize(files, fpb, stats.PowerOfTwoBuckets(16<<10, 16<<20))
			return nil
		}},
		{"bench", "bench.SequentialSweep", "bench.seqsweep_s", func() (err error) {
			sweep, err = bench.SequentialSweep(fs, cfg.DiskParams, cfg.BenchSizes, cfg.BenchTotal, days)
			return
		}},
		{"bench", "bench.HotFiles", "bench.hotfiles_s", func() (err error) {
			hot, err = bench.HotFiles(fs, cfg.DiskParams, days-cfg.HotWindow)
			return
		}},
		{"obs", "aging.PublishResult", "obs.publish_s", func() error {
			aging.PublishResult(reg.Scope("probe"), in.image, in.stream)
			return nil
		}},
		{"obs", "Registry.Write*", "obs.export_s", func() error {
			if err := reg.WriteMetrics(&exported); err != nil {
				return err
			}
			if err := reg.WriteEvents(&exported); err != nil {
				return err
			}
			return reg.WriteSpans(&exported)
		}},
		{"trace", "trace.WriteCheckpoint", "trace.checkpoint_encode_ms", func() error {
			if err := fs.SaveImage(&img); err != nil {
				return err
			}
			cp.Image = img.Bytes()
			return trace.WriteCheckpoint(&ckpt, cp)
		}},
	}
	for _, p := range probes {
		t0 := time.Now()
		if err := rec.do(root, 0, p.layer, p.name, func(int) error { return p.fn() }); err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		if p.metric != "" {
			m[p.metric] = time.Since(t0).Seconds()
		}
	}
	m["trace.checkpoint_encode_ms"] *= 1e3 // timed in seconds above
	m["obs.export_bytes"] = float64(exported.n)
	m["trace.checkpoint_bytes"] = float64(ckpt.n)

	var disk int64
	var reads, hits int64
	for _, r := range append(sweep, bench.SeqResult{Disk: hot.Disk}) {
		disk += r.Disk.Reads + r.Disk.Writes
		reads += r.Disk.Reads
		hits += r.Disk.BufferHits
	}
	m["disk.requests"] = float64(disk)
	m["disk.ns_per_request"] = 1e9 * (m["bench.seqsweep_s"] + m["bench.hotfiles_s"]) / float64(disk)
	m["disk.buffer_hit_ratio"] = ratio(hits, reads)
	return m, nil
}

// stepperProbe replays the stream on a fresh file system through the
// aging Stepper under ffs+realloc, timing each operation by kind.
func stepperProbe(in probeInput, m map[string]float64) error {
	fsys, err := ffs.NewFileSystem(in.cfg.FsParams, core.Realloc{})
	if err != nil {
		return err
	}
	st, err := aging.NewStepper(fsys)
	if err != nil {
		return err
	}
	ns := map[trace.OpKind][]float64{}
	for _, op := range in.stream.Ops {
		t0 := time.Now()
		if err := st.Apply(op); err != nil {
			return err
		}
		ns[op.Kind] = append(ns[op.Kind], float64(time.Since(t0).Nanoseconds()))
	}
	for kind, name := range map[trace.OpKind]string{trace.OpCreate: "create", trace.OpDelete: "delete", trace.OpRewrite: "rewrite"} {
		xs := ns[kind]
		sort.Float64s(xs)
		m["aging.op_ns."+name+".p50"] = quantile(xs, 0.5)
		m["aging.op_ns."+name+".p99"] = quantile(xs, 0.99)
	}
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// countWriter counts the bytes written to it and discards them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
