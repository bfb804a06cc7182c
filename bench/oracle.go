package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/uop"
)

// reference computes the alert lines an epoch over stream tuples [0, n)
// must produce: the workload's query compiled unsharded and driven
// synchronously — Push per tuple, Close at the end — with every tuple
// lifted from its wire form exactly as the daemon lifts it and every alert
// rendered through the daemon's own encoder. The SUT's sharded, live,
// multi-process executions are all pinned byte-identical to this path.
func reference(plan *uop.Compiled, p *pass, n int) ([][]byte, error) {
	var lines [][]byte
	collect := func(ts []*stream.Tuple) error {
		for _, t := range ts {
			m, err := server.AlertMsg(t)
			if err != nil {
				return err
			}
			line, err := server.EncodeLine(m)
			if err != nil {
				return err
			}
			lines = append(lines, line)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		u, err := server.ParseTuple(p.at(i))
		if err != nil {
			return nil, fmt.Errorf("reference tuple %d: %w", i, err)
		}
		plan.Push("locations", u)
		if err := collect(plan.Results()); err != nil {
			return nil, err
		}
	}
	if err := collect(plan.Close()); err != nil {
		return nil, err
	}
	return lines, nil
}

// compare counts the expected alert lines that are missing or differ
// (position by position: the alert stream is ordered) plus any surplus
// lines received, and describes the first departure for the failure report.
func compare(want [][]byte, got *segment) (bad int, first string) {
	note := func(format string, args ...any) {
		if bad == 0 {
			first = fmt.Sprintf(format, args...)
		}
	}
	for i, w := range want {
		switch {
		case i >= got.count():
			note("line %d missing (got %d of %d); want %s", i, got.count(), len(want), bytes.TrimSpace(w))
			bad++
		case !bytes.Equal(w, got.line(i)):
			note("line %d differs:\n    want %s\n    got  %s", i, bytes.TrimSpace(w), bytes.TrimSpace(got.line(i)))
			bad++
		}
	}
	if extra := got.count() - len(want); extra > 0 {
		note("%d surplus lines; first %s", extra, bytes.TrimSpace(got.line(len(want))))
		bad += extra
	}
	return bad, first
}

// triggerIndex maps an alert to the stream tuple that caused it: the first
// tuple whose t_ms is at or past the alert's t_ms. An alert is stamped with
// its window's end, and a window closes when the first tuple at or past
// its end arrives — for tumbling and sliding windows alike, and across
// repetitions of the pass, because t_ms is nondecreasing along the whole
// stream. The result is n when no such tuple was sent: the alert was
// flushed by "end".
func triggerIndex(p *pass, n int, alertT int64) int {
	return sort.Search(n, func(i int) bool { return p.at(i).T >= alertT })
}

// alertLatencies turns an open-loop phase's segment into latency samples
// in milliseconds: receive time minus the due time of the trigger tuple.
// Queue wait is in (a late trigger makes a late alert), window length is
// out. Alerts flushed by "end" have no trigger and are not samples.
func alertLatencies(seg *segment, p *pass, sch schedule, start time.Time) ([]float64, error) {
	out := make([]float64, 0, seg.count())
	for i := 0; i < seg.count(); i++ {
		var a struct {
			T int64 `json:"t_ms"`
		}
		if err := json.Unmarshal(seg.line(i), &a); err != nil {
			return nil, fmt.Errorf("alert line %d: %w", i, err)
		}
		trig := triggerIndex(p, sch.n, a.T)
		if trig == sch.n {
			continue
		}
		lat := seg.recv[i].Sub(start.Add(sch.due(trig)))
		out = append(out, float64(lat)/float64(time.Millisecond))
	}
	sort.Float64s(out)
	return out, nil
}
