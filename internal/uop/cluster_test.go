package uop

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rfid"
	"repro/internal/stream"
)

// The tests in this file pin the cluster split in-process: partitioning at
// the router (window clock + key routing), worker-side partial aggregates
// whose outputs round-trip through the cluster part codec, and the head-side
// merge must together reproduce the single-process alert stream
// byte-identically, for worker counts {1, 2, 4}.

// runCluster evaluates a clusterable query through the cluster split
// without sockets: a manually driven partition routes carriers to `workers`
// CompileWorker graphs; every partial and close a worker emits is encoded
// with that worker's core.PartCodec, decoded by the port's own codec (as a
// router link's reader decodes after the network hop), and pushed into the
// CompileHead merge. It returns the head's alert tuples.
func runCluster(t *testing.T, q *Query, lts []rfid.LocationTuple, w *rfid.Warehouse, workers int) []*stream.Tuple {
	t.Helper()
	plan, err := q.Cluster()
	if err != nil {
		t.Fatalf("Cluster(): %v", err)
	}
	head := plan.CompileHead(workers)
	var alerts []*stream.Tuple
	head.OnResult(func(a *stream.Tuple) { alerts = append(alerts, a) })

	wps := make([]*Compiled, workers)
	for i := range wps {
		wp := plan.CompileWorker()
		port := ClusterPort(i)
		var enc, dec core.PartCodec
		wp.OnResult(func(pt *stream.Tuple) {
			data, err := enc.Encode(pt)
			if err != nil {
				t.Fatalf("encode partial: %v", err)
			}
			rt, err := dec.Decode(data)
			if err != nil {
				t.Fatalf("decode partial: %v", err)
			}
			head.PushTuple(port, rt)
		})
		wps[i] = wp
	}

	spec := plan.Window
	key := plan.Key
	part := stream.NewPartition("route", workers, stream.PartitionSpec{
		Clock: &spec,
		Route: func(ct *stream.Tuple) (int, bool) {
			u := core.Unwrap(ct)
			if key == "" || !u.HasKey(key) {
				return 0, false
			}
			return stream.ShardOfKey(u.Key(key), workers), true
		},
	})
	emit := func(out *stream.Tuple) {
		if end, ok := stream.WindowCloseOf(out); ok {
			seq, _ := stream.CloseSeq(out)
			for _, wp := range wps {
				wp.PushTuple(plan.Source, stream.NewWindowClose(end, seq))
			}
			return
		}
		slot, ok := out.RouteShard()
		if !ok {
			t.Fatalf("partition emitted unrouted data tuple %v", out)
		}
		wps[slot].PushTuple(plan.Source, out)
	}
	for _, lt := range lts {
		part.Process(0, core.Wrap(LocationUTuple(lt, w)), emit)
	}
	part.Flush(emit)
	head.Graph.Close()
	return alerts
}

// runQ1Cluster is runCluster for Q1, decoded into alerts.
func runQ1Cluster(t *testing.T, lts []rfid.LocationTuple, w *rfid.Warehouse, cfg Q1Config, workers int) []Q1Alert {
	t.Helper()
	return Q1Alerts(runCluster(t, BuildQ1(cfg), lts, w, workers))
}

func TestQ1ClusterSplitMatchesSingleProcess(t *testing.T) {
	lts, w := seededTrace(t, 50, 350, 0)
	cases := []struct {
		name string
		mut  func(*Q1Config)
	}{
		{"tumbling", func(*Q1Config) {}},
		{"sliding", func(c *Q1Config) { c.SlideMS = 1500 * stream.Millisecond }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := q1ShardCfg()
			tc.mut(&cfg)
			ref := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, 0)))
			if ref == "" {
				t.Fatal("reference produced no alerts; test inputs too light")
			}
			for _, workers := range []int{1, 2, 4} {
				if got := formatQ1(runQ1Cluster(t, lts, w, cfg, workers)); got != ref {
					t.Errorf("cluster W=%d diverges:\nref:\n%s\ngot:\n%s", workers, ref, got)
				}
			}
		})
	}
}

// Stragglers land in windows by the router's clock exactly as they would
// by the single-process partitioner's.
func TestQ1ClusterSplitStraggler(t *testing.T) {
	lts, w := seededTrace(t, 40, 300, 0)
	for i := 7; i < len(lts); i += 11 {
		lts[i].T -= 6 * stream.Second
		if lts[i].T < 0 {
			lts[i].T = 0
		}
	}
	cfg := q1ShardCfg()
	for _, slide := range []stream.Time{0, 2 * stream.Second} {
		cfg.SlideMS = slide
		ref := formatQ1(Q1Alerts(runTrace(BuildQ1(cfg), lts, nil, w, 0)))
		if ref == "" {
			t.Fatalf("slide=%d: reference produced no alerts", slide)
		}
		for _, workers := range []int{1, 2, 4} {
			if got := formatQ1(runQ1Cluster(t, lts, w, cfg, workers)); got != ref {
				t.Errorf("slide=%d cluster W=%d diverges:\nref:\n%s\ngot:\n%s", slide, workers, ref, got)
			}
		}
	}
}

func TestClusterRejectsIneligibleChains(t *testing.T) {
	cfg := q1ShardCfg()
	cases := []struct {
		name string
		q    *Query
		want string
	}{
		{
			"pre-aggregate stage",
			From("locations").
				Where("drop-none", func(*core.UTuple) bool { return true }).
				WindowSpec(stream.WindowSpec{Duration: cfg.WindowMS}).
				DedupLatest("tag").
				GroupBy(q1Member(cfg)).
				Sum("weight", cfg.Strategy, cfg.Agg),
			"precedes the aggregate",
		},
		{
			"no aggregate",
			From("locations").Where("pass", func(*core.UTuple) bool { return true }),
			"requires a windowed aggregate",
		},
		{
			"unconsumed window",
			From("locations").Window(cfg.WindowMS),
			"without a consuming aggregate",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.q.Cluster()
			if err == nil {
				t.Fatal("Cluster() accepted an ineligible chain")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	q2 := BuildQ2(rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 1, Seed: 1}), Q2Config{})
	if _, err := q2.Cluster(); err == nil || !strings.Contains(err.Error(), "join") {
		t.Fatalf("join chain: got %v, want join rejection", err)
	}
}
