package server

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"time"
)

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
