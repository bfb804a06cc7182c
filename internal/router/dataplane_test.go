package router

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/snap"
	"repro/internal/stream"
	"repro/internal/uop"
)

// The tests in this file pin the frame-at-a-time data plane: client frames
// routed as frames, per-slot link batches flushed ahead of every close, and
// a failover that must not wedge behind a full link queue.

// bigFrames encodes msgs as a binary client stream of TUPLES frames of
// per tuples each (schema frames interleaved as shapes appear), and reports
// how many frames hold tuples from more than one window of length win.
func bigFrames(t *testing.T, msgs []server.Msg, per int, win stream.Time) (raw []byte, straddling int) {
	t.Helper()
	enc := server.NewBwEncoder()
	sent := map[*server.BwSchema]bool{}
	for off := 0; off < len(msgs); {
		var bts []server.BwTuple
		var sc *server.BwSchema
		for ; off < len(msgs) && len(bts) < per; off++ {
			var bt server.BwTuple
			if err := enc.Positional(&msgs[off], &bt); err != nil {
				t.Fatalf("msg %d: %v", off, err)
			}
			if sc != nil && bt.Schema != sc {
				break
			}
			sc = bt.Schema
			bts = append(bts, bt)
		}
		if !sent[sc] {
			raw = append(raw, sc.Frame()...)
			sent[sc] = true
		}
		raw = append(raw, server.EncodeTuplesFrame(sc, bts)...)
		first, last := stream.Time(bts[0].T)/win, stream.Time(bts[len(bts)-1].T)/win
		if first != last {
			straddling++
		}
	}
	return raw, straddling
}

// TestRouterBinaryFrameStraddlesWindows: binary client frames that span
// window boundaries — so the partition clock closes windows in the middle
// of a routing hold — reach two slots with replication on and still give
// the offline bytes. Every open batch must ship before the close does.
func TestRouterBinaryFrameStraddlesWindows(t *testing.T) {
	msgs := wireTrace(t, 40, 300)
	cfg := clusterQ1Cfg()
	ref := offlineAlertLines(t, msgs, cfg)
	if len(ref) == 0 {
		t.Fatal("offline reference produced no alerts")
	}
	raw, straddling := bigFrames(t, msgs, 97, cfg.WindowMS)
	if straddling < 3 {
		t.Fatalf("only %d frames straddle a window boundary; test inputs too light", straddling)
	}
	for _, workers := range []int{2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cl := startCluster(t, workers, cfg, func(c *Config) { c.Replicas = 2 })
			sub := subscribe(t, cl.rt)
			ingest := dialRouter(t, cl.rt)
			ingest.sendFrames(raw)
			ingest.send(server.Msg{Kind: server.KindEnd})
			if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
				t.Fatalf("end: got %+v", m)
			}
			diffLines(t, ref, collectAlerts(t, sub), fmt.Sprintf("straddling frames, workers=%d", workers))
			var replicated uint64
			for _, l := range cl.rt.Stats().Workers {
				replicated += l.Replicated
			}
			if replicated != uint64(len(msgs)) {
				t.Errorf("replicated %d tuples, want every one of %d", replicated, len(msgs))
			}
		})
	}
}

// TestRouterFailoverFullLinkQueue: a worker killed while its link queue is
// full must not wedge the router. Routing holds routeMu while it blocks in
// the dead link's Put; the failover entered from that link's reader and
// sender closes the queue before it waits for routeMu, so the Put fails
// fast and the frame is redirected to the promoted replica.
func TestRouterFailoverFullLinkQueue(t *testing.T) {
	msgs := wireTrace(t, 40, 300)
	cfg := server.DefaultQ3Config()
	cfg.SlideMS = 1500 * stream.Millisecond
	ref := offlineLines(t, msgs, uop.BuildQ3(cfg))
	cl := startClusterQuery(t, 3, uop.BuildQ3(cfg), func(c *Config) {
		c.Replicas = 2
		c.SendBuffer = 16
	})
	sub := subscribe(t, cl.rt)
	ingest := dialRouter(t, cl.rt)
	third := len(msgs) / 3
	for _, m := range msgs[:third] {
		ingest.send(m)
	}
	ingest.send(server.Msg{Kind: server.KindCkpt})
	if m := ingest.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("ckpt: got %+v", m)
	}
	for _, m := range msgs[third : 2*third] {
		ingest.send(m)
	}
	cl.workers[2].Crash()
	for _, m := range msgs[2*third:] {
		ingest.send(m)
	}
	ingest.send(server.Msg{Kind: server.KindEnd})
	if m := ingest.recv(20 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("end: got %+v", m)
	}
	diffLines(t, ref, collectAlerts(t, sub), "full link queue")
	if st := cl.rt.Stats(); st.Failovers < 1 || st.Degraded {
		t.Errorf("stats: %d failovers, degraded %v; want a clean failover", st.Failovers, st.Degraded)
	}
}

// sinkWorker is a stand-in worker that acks the link handshake and then
// reads and discards everything, allocating nothing in steady state — so
// an allocation count taken around the router measures the router alone.
// A non-nil reply is written back once, on the first TUPLES frame: by then
// the router's epoch is live, so the reply reaches its merge.
func sinkWorker(t *testing.T, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				wr := server.NewWireReader(c, 1<<26)
				ok := mustLine(server.Msg{Kind: server.KindOK})
				pending := reply
				for {
					line, fr, err := wr.Next()
					if err != nil {
						return
					}
					if line == nil {
						if fr.Kind == server.BwTuples && pending != nil {
							c.Write(pending)
							pending = nil
						}
						continue
					}
					if len(line) == 0 {
						continue
					}
					var m server.Msg
					if json.Unmarshal(line, &m) == nil && (m.Kind == server.KindJoin || m.Kind == server.KindSub) {
						c.Write(ok)
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRouterRejectsRetiredPartKind: a worker still shipping parts as the
// retired kind-0x05 frames (a stream.TupleCodec blob of the tuple) costs
// the router one worker error per frame and merges nothing; the same close
// in a current part frame right behind it is merged.
func TestRouterRejectsRetiredPartKind(t *testing.T) {
	plan, err := uop.BuildQ1(clusterQ1Cfg()).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	wc := stream.NewWindowClose(5*stream.Second, 1)
	var w snap.Writer
	w.Uvarint(0) // slot
	var blob snap.Writer
	if err := stream.NewTupleCodec().Encode(&blob, wc); err != nil {
		t.Fatal(err)
	}
	w.Blob(blob.Bytes())
	retired := append([]byte{server.BwMagic, 0x05}, binary.LittleEndian.AppendUint32(nil, uint32(len(w.Bytes())))...)
	retired = append(retired, w.Bytes()...)
	data, err := new(core.PartCodec).Encode(wc)
	if err != nil {
		t.Fatal(err)
	}
	reply := append(retired, server.EncodeBwPart(0, data)...)
	rt, err := New(Config{Addr: "127.0.0.1:0", Workers: []string{sinkWorker(t, reply)}, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	in := dialRouter(t, rt)
	in.send(wireTrace(t, 5, 20)[0])
	waitStats(t, rt, func(st Statsz) bool { return len(st.Closes) == 1 && st.Closes[0] >= 1 })
	if st := rt.Stats(); st.WorkerErrors != 1 || st.Closes[0] != 1 {
		t.Fatalf("worker errors %d, closes merged %v; want 1 and [1]", st.WorkerErrors, st.Closes)
	}
}

// TestRouteFrameAllocs pins the router's per-tuple allocation cost: routing
// one 32-tuple client frame over two slots with replication on — decode,
// validation, ring lookup, the partition box, and the owner and replica
// batches — stays within 2 allocations per tuple.
func TestRouteFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	plan, err := uop.BuildQ1(clusterQ1Cfg()).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Addr:     "127.0.0.1:0",
		Workers:  []string{sinkWorker(t, nil), sinkWorker(t, nil)},
		Replicas: 2,
		Plan:     plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })

	// One window's worth of tuples, so repeated runs trigger no closes.
	var msgs []server.Msg
	for _, m := range wireTrace(t, 40, 300) {
		if m.T < int64(clusterQ1Cfg().WindowMS) {
			msgs = append(msgs, m)
		}
	}
	if len(msgs) < server.BwBatch {
		t.Fatalf("first window holds %d tuples, want at least %d", len(msgs), server.BwBatch)
	}
	raw := encodeBinary(t, msgs[:server.BwBatch])
	wr := server.NewWireReader(bytes.NewReader(raw), 0)
	// What the client edge runs per TUPLES frame: the connection's decoder,
	// then the router's handler.
	dec, c := server.NewBwDecoder(), rt.newClientConn()
	var tuples []byte
	for {
		_, fr, err := wr.Next()
		if err != nil {
			break
		}
		switch fr.Kind {
		case server.BwTuples:
			tuples = append([]byte(nil), fr.Payload...)
		case server.BwSchemaFrame:
			if _, err := dec.AddSchema(fr.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	route := func() {
		bts, err := dec.DecodeTuples(tuples)
		n := 0
		if err == nil {
			n, err = c.Ingest(bts)
		}
		if err != nil || n != server.BwBatch {
			t.Fatalf("routed %d tuples: %v", n, err)
		}
	}
	route() // warm the decoder scratch, the schema cache and the batch buffers
	perTuple := testing.AllocsPerRun(200, route) / server.BwBatch
	t.Logf("%.3f allocs per routed tuple", perTuple)
	if perTuple > 2 {
		t.Errorf("routing a %d-tuple frame costs %.3f allocs per tuple, want <= 2", server.BwBatch, perTuple)
	}
}

// recordedPart runs the wire trace through Q1's worker plan behind a
// one-slot partition, as a router feeds a worker, and returns the largest
// partial the worker emits together with the payload of the BwPart frame
// that carries it.
func recordedPart(t *testing.T) (*stream.Tuple, []byte) {
	t.Helper()
	plan, err := uop.BuildQ1(clusterQ1Cfg()).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	wp := plan.CompileWorker()
	var (
		best     *stream.Tuple
		bestData []byte
		enc      core.PartCodec
	)
	wp.OnResult(func(pt *stream.Tuple) {
		if _, isClose := stream.WindowCloseOf(pt); isClose {
			return
		}
		data, err := enc.Encode(pt)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > len(bestData) {
			best, bestData = pt, append([]byte(nil), data...)
		}
	})
	spec := plan.Window
	part := stream.NewPartition("route", 1, stream.PartitionSpec{
		Clock: &spec,
		Route: func(*stream.Tuple) (int, bool) { return 0, true },
	})
	emit := func(out *stream.Tuple) {
		if end, ok := stream.WindowCloseOf(out); ok {
			seq, _ := stream.CloseSeq(out)
			out = stream.NewWindowClose(end, seq)
		}
		wp.PushTuple(plan.Source, out)
	}
	for _, m := range wireTrace(t, 40, 300) {
		u, err := server.ParseTuple(m)
		if err != nil {
			t.Fatal(err)
		}
		part.Process(0, core.Wrap(u), emit)
	}
	part.Flush(emit)
	wp.Close()
	if best == nil {
		t.Fatal("the worker plan emitted no partials")
	}
	_, fr, err := server.NewWireReader(bytes.NewReader(server.EncodeBwPart(1, bestData)), 0).Next()
	if err != nil || fr.Kind != server.BwPart {
		t.Fatalf("part frame: kind %#x, %v", fr.Kind, err)
	}
	return best, fr.Payload
}

// TestDecodePartAllocs pins the router's cost of taking in one worker
// partial — DecodeBwPart, then the link's core.PartCodec, as linkReader
// does — on the largest partial of the wire trace (36 contributions). The
// budget is the count recorded when carriers began holding Normal and
// point-mass attributes by value (10; 81 before, when each contribution
// boxed its carrier's weight and its gated moments, and 658 before the
// positional part codec, on a 5 965-byte part): the frame's tuple, the
// partial, and one backing array per kind of decoded value, moment
// contributions included. The part's size drifts by a few bytes between
// runs in one process (tuple ids come from a process-wide counter); its
// allocation count does not.
func TestDecodePartAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	_, payload := recordedPart(t)
	var dec core.PartCodec
	decode := func() {
		slot, data, err := server.DecodeBwPart(payload)
		if err != nil || slot != 1 {
			t.Fatalf("DecodeBwPart: slot %d, %v", slot, err)
		}
		if _, err := dec.Decode(data); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, decode)
	t.Logf("%d-byte part: %v allocs per decode", len(payload), allocs)
	if allocs > 10 {
		t.Errorf("decoding the %d-byte part costs %v allocs, budget 10", len(payload), allocs)
	}
}

// TestEncodePartAllocs pins the worker's cost of shipping a partial: once
// its scratch has grown, a part emitter's codec encodes the largest partial
// of the wire trace without allocating. The frame itself (EncodeBwPart's
// one exact-size copy) is the only allocation per part left in emitPart.
func TestEncodePartAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	pt, _ := recordedPart(t)
	var enc core.PartCodec
	encode := func() {
		if _, err := enc.Encode(pt); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Errorf("encoding a partial costs %v allocs in steady state, want 0", allocs)
	}
}

// TestRouterJSONClientLines: the JSON client edge runs on the server's
// LineDecoder. Lines in its canonical subset and odd-but-valid lines
// outside it (whitespace, reordered members, an unknown member, a
// case-variant field) route byte-identically to the offline reference, and
// a tuple rejected as a JSON line or inside a frame costs one ingest error
// and one decode error on its connection alike.
func TestRouterJSONClientLines(t *testing.T) {
	msgs := wireTrace(t, 40, 300)
	cfg := clusterQ1Cfg()
	ref := offlineAlertLines(t, msgs, cfg)
	if len(ref) == 0 {
		t.Fatal("offline reference produced no alerts")
	}
	cl := startCluster(t, 2, cfg, nil)
	sub := subscribe(t, cl.rt)
	c := dialRouter(t, cl.rt)

	bad := server.Msg{Kind: server.KindTuple, T: 100, Attrs: map[string]server.Attr{
		"x": {Mean: 1, Std: -2}, "weight": server.PointAttr(140),
	}}
	c.send(bad)
	b := server.NewBwBatcher()
	if err := b.Add(bad); err != nil {
		t.Fatal(err)
	}
	c.sendFrames(b.Take())
	for _, via := range []string{"line", "frame"} {
		if m := c.recv(5 * time.Second); m.Kind != server.KindErr || m.Error != `attr "x": attr std -2 is negative` {
			t.Errorf("%s: reply %+v", via, m)
		}
	}

	for i, m := range msgs {
		raw, err := server.EncodeLine(m)
		if err != nil {
			t.Fatal(err)
		}
		line := string(raw)
		switch i % 5 {
		case 1:
			line = strings.NewReplacer(",", " , ", ":", ": ").Replace(line)
		case 2:
			line = strings.Replace(line, `"kind":"tuple",`, "", 1)
			line = strings.Replace(line, "}}\n", `},"kind":"tuple"}`+"\n", 1)
		case 3:
			line = strings.Replace(line, `{"kind"`, `{"note":"odd","kind"`, 1)
		case 4:
			line = strings.Replace(line, `"source"`, `"Source"`, 1)
		}
		if _, err := c.w.WriteString(line); err != nil {
			t.Fatal(err)
		}
	}
	c.send(server.Msg{Kind: server.KindEnd})
	if m := c.recv(60 * time.Second); m.Kind != server.KindOK {
		t.Fatalf("end: got %+v", m)
	}
	diffLines(t, ref, collectAlerts(t, sub), "odd JSON lines")

	st := cl.rt.Stats()
	if st.Ingested != uint64(len(msgs)) || st.IngestErrors != 2 {
		t.Errorf("ingested %d with %d errors, want %d with 2", st.Ingested, st.IngestErrors, len(msgs))
	}
	var decodeErrs []uint64
	for _, cs := range st.Conns {
		decodeErrs = append(decodeErrs, cs.DecodeErrors)
	}
	if !slices.Contains(decodeErrs, 2) {
		t.Errorf("per-connection decode errors %v: want the ingest connection at 2", decodeErrs)
	}
}

// TestRouterRejectsNullKeyAndTime: the router's JSON client edge rejects a
// tuple line with a null key value or t_ms, as streamd does, instead of
// routing it with a zero tag or timestamp.
func TestRouterRejectsNullKeyAndTime(t *testing.T) {
	cl := startCluster(t, 1, clusterQ1Cfg(), nil)
	c := dialRouter(t, cl.rt)
	for _, tc := range []struct{ line, want string }{
		{`{"kind":"tuple","t_ms":5,"keys":{"tag":null},"attrs":{"x":1,"y":1,"weight":1}}`, `bad line: tuple key "tag" is null`},
		{`{"kind":"tuple","t_ms":null,"keys":{"tag":1},"attrs":{"x":1,"y":1,"weight":1}}`, "bad line: tuple t_ms is null"},
	} {
		if _, err := c.w.WriteString(tc.line + "\n"); err != nil {
			t.Fatal(err)
		}
		if err := c.w.Flush(); err != nil {
			t.Fatal(err)
		}
		if m := c.recv(5 * time.Second); m.Kind != server.KindErr || m.Error != tc.want {
			t.Errorf("%s: reply %+v, want error %q", tc.line, m, tc.want)
		}
	}
	if st := cl.rt.Stats(); st.Ingested != 0 || st.IngestErrors != 2 {
		t.Errorf("ingested %d with %d errors, want 0 with 2", st.Ingested, st.IngestErrors)
	}
}
