package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// BenchmarkServerWire measures end-to-end wire throughput: tuples over
// localhost TCP, through decode, the bounded queue, the sharded live Q1
// plan, and the alert stream back to a subscriber. Each iteration replays
// the trace as one engine epoch (ingest, "end", drain, "done"). The
// proto dimension compares the JSON-lines protocol against the binary
// frame protocol on the same trace and plan; the tuples/s metric is the
// wire ingest rate CI tracks (json in BENCH_PR5.json, bin in
// BENCH_PR9.json).
func BenchmarkServerWire(b *testing.B) {
	for _, proto := range []string{"json", "bin"} {
		for _, shards := range []int{0, 2} {
			b.Run(fmt.Sprintf("proto=%s/shards=%d", proto, shards), func(b *testing.B) {
				msgs := wireTrace(b, 40, 300)
				// The full ingest stream is pre-encoded outside the timer
				// in both protocols: the benchmark measures the server's
				// receive path, not the client's encoder. Schema ids are
				// connection-scoped and the stream opens with its schema
				// frames, so the same bytes are valid on every fresh dial.
				var ingestBytes []byte
				if proto == "bin" {
					ingestBytes = encodeBinary(b, msgs)
				} else {
					var buf bytes.Buffer
					for _, m := range msgs {
						line, err := EncodeLine(m)
						if err != nil {
							b.Fatal(err)
						}
						buf.Write(line)
					}
					ingestBytes = buf.Bytes()
				}
				endLine, _ := EncodeLine(Msg{Kind: KindEnd})
				subLine, _ := EncodeLine(Msg{Kind: KindSub})

				cfg := testQ1Config(shards)
				s, err := New(Config{
					Addr:       "127.0.0.1:0",
					NewPlan:    Q1Plan(cfg),
					FlushEvery: 50 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()

				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				alerts := 0
				for i := 0; i < b.N; i++ {
					sub, err := net.Dial("tcp", s.Addr().String())
					if err != nil {
						b.Fatal(err)
					}
					subR := bufio.NewReader(sub)
					if _, err := sub.Write(subLine); err != nil {
						b.Fatal(err)
					}
					if _, err := subR.ReadBytes('\n'); err != nil { // ok
						b.Fatal(err)
					}
					ingest, err := net.Dial("tcp", s.Addr().String())
					if err != nil {
						b.Fatal(err)
					}
					w := bufio.NewWriterSize(ingest, 1<<16)
					if _, err := io.Copy(w, bytes.NewReader(ingestBytes)); err != nil {
						b.Fatal(err)
					}
					w.Write(endLine)
					if err := w.Flush(); err != nil {
						b.Fatal(err)
					}
					for {
						line, err := subR.ReadBytes('\n')
						if err != nil {
							b.Fatal(err)
						}
						var m Msg
						if err := json.Unmarshal(line, &m); err != nil {
							b.Fatal(err)
						}
						if m.Kind == KindDone {
							break
						}
						alerts++
					}
					sub.Close()
					ingest.Close()
				}
				elapsed := time.Since(start)
				b.ReportMetric(float64(len(msgs)*b.N)/elapsed.Seconds(), "tuples/s")
				b.ReportMetric(float64(alerts)/float64(b.N), "alerts/op")
			})
		}
	}
}

// BenchmarkBwireDecode isolates the binary receive path with no engine
// behind it: frame splitting plus DecodeTuples plus the UTuple lift over
// the pre-encoded trace — the per-tuple decode cost a connection pays,
// and the path the zero-allocs assertion (TestBwireDecodeAllocs) pins.
func BenchmarkBwireDecode(b *testing.B) {
	msgs := wireTrace(b, 40, 300)
	raw := encodeBinary(b, msgs)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	dec := NewBwDecoder()
	seenSchemas := false
	for i := 0; i < b.N; i++ {
		wr := NewWireReader(bytes.NewReader(raw), 0)
		for {
			_, fr, err := wr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			switch fr.Kind {
			case BwSchemaFrame:
				// The schema table persists across iterations (it is
				// connection state, and this is one logical connection
				// replaying the same stream), so only the first pass
				// registers.
				if !seenSchemas {
					if _, err := dec.AddSchema(fr.Payload); err != nil {
						b.Fatal(err)
					}
				}
			case BwTuples:
				bts, err := dec.DecodeTuples(fr.Payload)
				if err != nil {
					b.Fatal(err)
				}
				for j := range bts {
					if _, err := bts[j].UTuple(); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		seenSchemas = true
	}
	b.ReportMetric(float64(len(msgs)*b.N)/time.Since(start).Seconds(), "tuples/s")
}

// BenchmarkJSONParseTuple is BenchmarkBwireDecode's JSON counterpart:
// per-line Unmarshal plus ParseTuple over the same trace, for the
// decode-only comparison EXPERIMENTS.md tabulates.
func BenchmarkJSONParseTuple(b *testing.B) {
	msgs := wireTrace(b, 40, 300)
	var buf bytes.Buffer
	for _, m := range msgs {
		line, err := EncodeLine(m)
		if err != nil {
			b.Fatal(err)
		}
		buf.Write(line)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		wr := NewWireReader(bytes.NewReader(raw), 0)
		for {
			line, _, err := wr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			var m Msg
			if err := json.Unmarshal(line, &m); err != nil {
				b.Fatal(err)
			}
			if _, err := ParseTuple(m); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(msgs)*b.N)/time.Since(start).Seconds(), "tuples/s")
}

// BenchmarkLineDecoder is the daemon's JSON decode path over the same
// lines as BenchmarkJSONParseTuple: one connection's LineDecoder, then the
// positional tuple's UTuple lift — the path a JSON tuple line now shares
// with BenchmarkBwireDecode's frames.
func BenchmarkLineDecoder(b *testing.B) {
	msgs := wireTrace(b, 40, 300)
	var buf bytes.Buffer
	for _, m := range msgs {
		line, err := EncodeLine(m)
		if err != nil {
			b.Fatal(err)
		}
		buf.Write(line)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	d := NewLineDecoder()
	for i := 0; i < b.N; i++ {
		wr := NewWireReader(bytes.NewReader(raw), 0)
		for {
			line, _, err := wr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.Decode(line); err != nil {
				b.Fatal(err)
			}
			bts, err := d.Tuple()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := bts[0].UTuple(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(msgs)*b.N)/time.Since(start).Seconds(), "tuples/s")
}
