package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// A sleep that always overshoots must not push the plan back: chunk k is
// written within one overshoot of start + k·tick, however many chunks
// preceded it.
func TestPaceSchedulesFromDueTimes(t *testing.T) {
	const overshoot = 400 * time.Microsecond
	start := time.Unix(1000, 0)
	now := start
	c := clock{
		now:   func() time.Time { return now },
		sleep: func(d time.Duration) { now = now.Add(d + overshoot) },
	}
	chunks := make([][]byte, 200)
	for i := range chunks {
		chunks[i] = []byte{1}
	}
	var wroteAt []time.Duration
	lags, err := pace(c, start, chunks, func([]byte) error {
		wroteAt = append(wroteAt, now.Sub(start))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, at := range wroteAt {
		want := time.Duration(k) * tick
		if at < want || at > want+overshoot {
			t.Fatalf("chunk %d written at %v, want within [%v, %v]", k, at, want, want+overshoot)
		}
	}
	if got := lags[len(lags)-1]; got != overshoot {
		t.Errorf("last lag %v, want the single overshoot %v (accumulated sleeps would give %v)",
			got, overshoot, time.Duration(len(chunks)-1)*overshoot)
	}
}

// A sender that is behind writes overdue chunks back to back and skips
// empty ones without recording a lag for them.
func TestPaceCatchesUpAndSkipsEmptyChunks(t *testing.T) {
	start := time.Unix(1000, 0)
	now := start.Add(5 * tick) // already 5 ticks late
	slept := 0
	c := clock{now: func() time.Time { return now }, sleep: func(d time.Duration) { slept++; now = now.Add(d) }}
	chunks := [][]byte{{1}, nil, {1}, {1}}
	writes := 0
	lags, err := pace(c, start, chunks, func([]byte) error { writes++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if slept != 0 || writes != 3 || len(lags) != 3 {
		t.Fatalf("slept %d times, %d writes, %d lags; want 0, 3, 3", slept, writes, len(lags))
	}
	if lags[0] != 5*tick || lags[2] != 2*tick {
		t.Errorf("lags %v, want first 5 ticks and last 2 ticks", lags)
	}
}

func TestScheduleCoversEveryTupleOnceAndNeverEarly(t *testing.T) {
	for _, s := range []schedule{{rate: 9000, n: 45000}, {rate: 385000, n: 1925000}, {rate: 700, n: 50}, {rate: 1000, n: 1}} {
		prev := 0
		for k := 0; k < s.ticks(); k++ {
			to := s.dueBy(k)
			if to < prev {
				t.Fatalf("%+v: dueBy(%d)=%d went backwards from %d", s, k, to, prev)
			}
			for i := prev; i < to; i++ {
				if due := s.due(i); due > time.Duration(k)*tick {
					t.Fatalf("%+v: tuple %d due at %v sent early at tick %d", s, i, due, k)
				}
				if k > 0 && s.due(i) <= time.Duration(k-1)*tick {
					t.Fatalf("%+v: tuple %d due at %v sent a tick late at %d", s, i, s.due(i), k)
				}
			}
			prev = to
		}
		if prev != s.n {
			t.Fatalf("%+v: %d ticks cover %d of %d tuples", s, s.ticks(), prev, s.n)
		}
	}
}

// testPass is a pass over tuples at the given event times (ms).
func testPass(times ...int64) *pass {
	tr := &trace{}
	for _, tm := range times {
		tr.msgs = append(tr.msgs, server.Msg{T: tm})
	}
	p, err := newPass(tr, 1)
	if err != nil {
		panic(err)
	}
	return p
}

func TestTriggerIndex(t *testing.T) {
	// Tuples at 0, 2000, 4000, 6000, 11000 ms; windows anchor at 0. The
	// span is 11000, so a repetition shifts by 15000 (whole 5 s windows).
	p := testPass(0, 2000, 4000, 6000, 11000)
	if p.shift != 15000 {
		t.Fatalf("shift %d, want 15000", p.shift)
	}
	n := 10 // two passes: second one at 15000, 17000, 19000, 21000, 26000
	cases := []struct {
		name   string
		alertT int64
		want   int
	}{
		{"tumbling: window [0,5000) is closed by the tuple at 6000", 5000, 3},
		{"tumbling: window [5000,10000) is closed by the tuple at 11000", 10000, 4},
		{"sliding: slide end 2000 is closed by the tuple at exactly 2000", 2000, 1},
		{"sliding: slide end 3000 is closed by the tuple at 4000", 3000, 2},
		{"pass boundary: window [10000,15000) is closed by the next pass's first tuple", 15000, 5},
		{"second pass: window [15000,20000) is closed by the tuple at 21000", 20000, 8},
		{"flushed by end: no tuple at or past 30000", 30000, n},
	}
	for _, c := range cases {
		if got := triggerIndex(p, n, c.alertT); got != c.want {
			t.Errorf("%s: trigger %d, want %d", c.name, got, c.want)
		}
	}
	// A shorter stream ends earlier: the same alert has no trigger in it.
	if got := triggerIndex(p, 5, 15000); got != 5 {
		t.Errorf("alert at 15000 in a one-pass stream: trigger %d, want 5 (flushed)", got)
	}
}

func TestAlertLatencies(t *testing.T) {
	p := testPass(0, 2000, 4000, 6000, 11000)
	sch := schedule{rate: 1000, n: 5} // tuple i due at i ms
	start := time.Unix(1000, 0)
	seg := &segment{}
	add := func(line string, at time.Duration) {
		seg.lines = append(seg.lines, line...)
		seg.ends = append(seg.ends, len(seg.lines))
		seg.recv = append(seg.recv, start.Add(at))
	}
	add(`{"kind":"alert","t_ms":5000,"group":"a"}`+"\n", 10*time.Millisecond) // trigger 3, due 3 ms
	add(`{"kind":"alert","t_ms":10000}`+"\n", 6*time.Millisecond)             // trigger 4, due 4 ms
	add(`{"kind":"alert","t_ms":15000}`+"\n", 50*time.Millisecond)            // flushed by end
	lat, err := alertLatencies(seg, p, sch, start)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat) != 2 || lat[0] != 2 || lat[1] != 7 {
		t.Errorf("latencies %v, want [2 7] ms (sorted; the flushed alert is not a sample)", lat)
	}
}

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n       int
		want    float64
		wantPct float64
	}{
		{2000, 1980, 99},  // p99 has 20 beyond it
		{1000, 990, 99},   // exactly ten beyond p99
		{999, 989, 98.99}, // p99 would leave nine beyond: step down to ten
		{100, 90, 90},     // highest percentile with ten beyond
		{11, 1, 100.0 / 11},
		{10, 10, 100}, // no percentile has ten beyond: the maximum
		{1, 1, 100},
	}
	for _, c := range cases {
		v, pct := tail(seq(c.n))
		if v != c.want || math.Abs(pct-c.wantPct) > 0.01 {
			t.Errorf("n=%d: tail %v at p%.2f, want %v at p%.2f", c.n, v, pct, c.want, c.wantPct)
		}
		if beyond := c.n - int(v); c.n > tailMinBeyond && beyond < tailMinBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported value", c.n, beyond)
		}
	}
	if v, _ := tail(nil); !math.IsNaN(v) {
		t.Errorf("tail of nothing is %v, want NaN", v)
	}
}

// Values from Python: statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{10, 12}, [3]float64{9.5, 11, 12.5}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2.5, 9, 4, 4, 7, 1, 6.5}, [3]float64{2.5, 4, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestParseStatTicks(t *testing.T) {
	// The command name may contain spaces and parentheses.
	line := "4242 (stream d) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 269 5 6 20 0 9 0 12345 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatTicks(line)
	if err != nil || got != 1000 {
		t.Fatalf("parseStatTicks = %d, %v; want 1000 (utime 731 + stime 269)", got, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S"} {
		if _, err := parseStatTicks(bad); err == nil {
			t.Errorf("parseStatTicks(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tstreamd\nVmPeak:\t 1234567 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 51234 {
		t.Fatalf("parseVmHWM = %d, %v; want 51234", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "frame", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "decode", StartNS: 5, EndNS: 25},
		{ID: 2, Parent: 0, Name: "push", StartNS: 30, EndNS: 90},
		{ID: 3, Parent: 2, Name: "encode", StartNS: 40, EndNS: 50},
		{ID: 4, Parent: 2, Name: "hub", StartNS: 50, EndNS: 55},
		// Overlapping children are counted once; a child running past
		// its parent is clipped.
		{ID: 5, Parent: 2, Name: "encode", StartNS: 60, EndNS: 80},
		{ID: 6, Parent: 2, Name: "hub", StartNS: 70, EndNS: 95},
		{ID: 7, Parent: -1, Name: "frame", StartNS: 100, EndNS: 110},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"frame":  (100 - 20 - 60) + 10,
		"decode": 20,
		"push":   60 - (10 + 5) - 30, // [40,55) and [60,90)
		"encode": 10 + 20,
		"hub":    5 + 25,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want exactly %v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.begin("x") // a nil tracer is the untraced run: no-ops
	off.end()
	off.nextFrame()

	tr := newTracer()
	tr.nextFrame()
	tr.begin("frame")
	tr.begin("push")
	tr.begin("encode")
	tr.end()
	tr.end()
	tr.end()
	tr.nextFrame()
	tr.begin("frame")
	tr.end()
	wantParent := []int{-1, 0, 1, -1}
	wantFrame := []int{1, 1, 1, 2}
	for i, s := range tr.spans {
		if s.Parent != wantParent[i] || s.Frame != wantFrame[i] || s.EndNS < s.StartNS {
			t.Errorf("span %d = %+v, want parent %d frame %d", i, s, wantParent[i], wantFrame[i])
		}
	}
}

func TestCompare(t *testing.T) {
	seg := &segment{}
	for _, l := range []string{"a\n", "b\n", "x\n", "d\n", "e\n"} {
		seg.lines = append(seg.lines, l...)
		seg.ends = append(seg.ends, len(seg.lines))
	}
	want := [][]byte{[]byte("a\n"), []byte("b\n"), []byte("c\n")}
	if got, first := compare(want, seg); got != 3 || !strings.HasPrefix(first, "line 2 differs") {
		t.Errorf("compare = %d, %q; want 3 (one differing line, two surplus), first at line 2", got, first)
	}
	if got, first := compare(append(want, []byte("d\n"), []byte("e\n"), []byte("f\n")), seg); got != 2 || !strings.HasPrefix(first, "line 2 differs") {
		t.Errorf("compare = %d, %q; want 2 (one differing, one missing), first at line 2", got, first)
	}
	if got, first := compare(want[:2], &segment{}); got != 2 || !strings.HasPrefix(first, "line 0 missing") {
		t.Errorf("compare with nothing received = %d, %q; want 2, first at line 0", got, first)
	}
}
