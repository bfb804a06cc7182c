package main

import (
	"strings"

	"repro/internal/server"
	"repro/internal/uop"
)

const (
	windowMS = 5000 // every workload's window Range, the daemon default
	q3Slide  = 1000
)

// workload is one traffic mix and the SUT configuration it drives. The
// names are cited by later issues; do not rename them.
type workload struct {
	name string
	why  string
	// proto is the client ingest encoding; alerts are JSON lines either way.
	proto string
	// compress divides event time, packing more tuples into each window.
	compress int64
	// loRate and hiRate are the open-loop rates in tuples/s: about 30 % and
	// 70 % of this workload's sat_tuples_per_s when the benchmark was
	// defined, frozen so that every commit is offered the same schedule.
	loRate, hiRate int
	// limitMS is the alert_p99_ms latency limit.
	limitMS float64
	// plan compiles the unsharded reference query.
	plan func() *uop.Compiled
	// start launches the SUT's processes, workers before router.
	start func(ps *procs, bin, out string) (*sut, error)
}

func q1Ref() *uop.Compiled { return uop.BuildQ1(server.DefaultQ1Config()).Compile() }

func q3Ref() *uop.Compiled {
	cfg := server.DefaultQ3Config()
	cfg.SlideMS = q3Slide
	return uop.BuildQ3(cfg).Compile()
}

// single starts one streamd in server mode.
func single(args ...string) func(*procs, string, string) (*sut, error) {
	return func(ps *procs, bin, out string) (*sut, error) {
		p, err := ps.startProc(bin, "streamd", args...)
		if err != nil {
			return nil, err
		}
		return &sut{front: p, all: []*proc{p}}, nil
	}
}

func startQ3(ps *procs, bin, out string) (*sut, error) {
	dir, err := ps.tempDir(out, "data-")
	if err != nil {
		return nil, err
	}
	return single("-query", "quantile", "-slide", "1000", "-shards", "2",
		"-data-dir", dir, "-checkpoint-every", "500ms")(ps, bin, out)
}

func startCluster(ps *procs, bin, out string) (*sut, error) {
	s := &sut{}
	var addrs []string
	for _, name := range []string{"worker0", "worker1"} {
		p, err := ps.startProc(bin, name, "-mode", "worker")
		if err != nil {
			return nil, err
		}
		s.all = append(s.all, p)
		addrs = append(addrs, p.addr)
	}
	r, err := ps.startProc(bin, "router", "-mode", "router", "-proto", "bin", "-replicas", "2",
		"-checkpoint-every", "500ms", "-workers", strings.Join(addrs, ","))
	if err != nil {
		return nil, err
	}
	r.router = true
	s.front = r
	s.all = append([]*proc{r}, s.all...)
	return s, nil
}

var workloads = []workload{
	{
		name:     "q1_bin",
		why:      "engine spine alone: binary frames, tumbling Q1, unsharded; the single-threaded baseline the others are read against",
		proto:    "bin",
		compress: 8,
		loRate:   165000, hiRate: 385000,
		limitMS: 100,
		plan:    q1Ref,
		start:   single("-query", "q1", "-shards", "0"),
	},
	{
		name:     "q1_json",
		why:      "same plan and trace over JSON lines: parse cost dominates, so a wire change shows here and an engine change barely does",
		proto:    "json",
		compress: 8,
		loRate:   26000, hiRate: 61000,
		limitMS: 100,
		plan:    q1Ref,
		start:   single("-query", "q1", "-shards", "0"),
	},
	{
		name:     "q3_slide_ckpt",
		why:      "sliding quantile on 2 shards with 500ms checkpoints: eviction, partition/merge, finalize and the snapshot barrier, far more alerts per tuple",
		proto:    "bin",
		compress: 1,
		loRate:   9000, hiRate: 21000,
		limitMS: 100,
		plan:    q3Ref,
		start:   startQ3,
	},
	{
		name:     "cluster_q1_bin",
		why:      "router with binary links, 2 workers, replicas 2: decode, ring-route, re-encode, dual-write and merge dominate; the engine is a minority",
		proto:    "bin",
		compress: 8,
		loRate:   27000, hiRate: 63000,
		limitMS: 250,
		plan:    q1Ref,
		start:   startCluster,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
