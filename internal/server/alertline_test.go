package server

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/stream"
)

// fixedDist reports a chosen mean and standard deviation, so a test can put
// any float on the wire.
type fixedDist struct {
	dist.Normal
	m, s float64
}

func (d fixedDist) Mean() float64 { return d.m }
func (d fixedDist) Std() float64  { return d.s }

// alertTuple builds a sink tuple the way the plans do: a "u" payload plus
// optional "group" and "p" fields, each given as any stream value (nil
// leaves the field out).
func alertTuple(ts stream.Time, u stream.Value, group, p stream.Value) *stream.Tuple {
	names := []string{"u"}
	vals := []stream.Value{u}
	if group != nil {
		names = append(names, "group")
		vals = append(vals, group)
	}
	if p != nil {
		names = append(names, "p")
		vals = append(vals, p)
	}
	return stream.NewTuple(stream.NewSchema(names...), ts, vals...)
}

// payload builds an uncertain tuple from name/dist pairs and sorted keys.
func payload(exist float64, keys map[string]int64, attrs ...any) *core.UTuple {
	var names []string
	var ds []dist.Dist
	for i := 0; i < len(attrs); i += 2 {
		names = append(names, attrs[i].(string))
		ds = append(ds, attrs[i+1].(dist.Dist))
	}
	u := core.NewUTuple(0, names, ds)
	u.Exist = exist
	for k, v := range keys {
		u.SetKey(k, v)
	}
	return u
}

func fixed(m, s float64) dist.Dist { return fixedDist{m: m, s: s} }

// checkAlertLine fails unless AlertLine gives the reference's bytes and
// error for t.
func checkAlertLine(t *testing.T, name string, tp *stream.Tuple) {
	t.Helper()
	got, gotErr := AlertLine(tp)
	var want []byte
	m, wantErr := AlertMsg(tp)
	if wantErr == nil {
		want, wantErr = EncodeLine(m)
	}
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, want %v", name, gotErr, wantErr)
	}
	if string(got) != string(want) {
		t.Fatalf("%s:\n got %q\nwant %q", name, got, want)
	}
}

// TestAlertLineMatchesReference pins AlertLine to EncodeLine(AlertMsg(t))
// over the shapes the plans emit and the edges of the canonical subset:
// names encoding/json escapes or replaces, floats it formats in 'e' or
// refuses, zero and negative t_ms, keys present, absent or unsorted, the
// group marker attribute, repeated and unsorted attribute names, more
// attributes than the stack sort takes, and payloads AlertMsg rejects.
func TestAlertLineMatchesReference(t *testing.T) {
	hist := dist.NewHistogram(100, 164, []float64{0, 0, 3, 0, 1, 0, 0, 2})
	q1 := payload(0.9, map[string]int64{"tag": 17}, "weight", dist.NewNormal(141.5, 12.25), "group", dist.PointMass{V: 3})
	cases := map[string]*stream.Tuple{
		"q1":              alertTuple(5000, q1, "7,3", 0.8125),
		"q3 histogram":    alertTuple(2500, payload(1, nil, "weight", hist, "group", dist.PointMass{V: 1}), "2,9", 0.5),
		"t_ms 0":          alertTuple(0, payload(1, nil, "w", fixed(1, 0)), nil, nil),
		"negative t_ms":   alertTuple(-40, payload(1, nil, "w", fixed(1, 0)), nil, nil),
		"exist as p":      alertTuple(9, payload(0.375, nil, "w", fixed(2, 1)), nil, nil),
		"int p":           alertTuple(9, payload(1, nil, "w", fixed(2, 1)), nil, 3),
		"string p":        alertTuple(9, payload(0.25, nil, "w", fixed(2, 1)), nil, "high"),
		"empty group":     alertTuple(9, payload(1, nil, "w", fixed(2, 1), "group", fixed(0, 0)), "", 0.5),
		"int group field": alertTuple(9, payload(1, nil, "w", fixed(2, 1), "group", fixed(4, 0)), 7, 0.5),
		"only the marker": alertTuple(9, payload(1, nil, "group", fixed(4, 0)), "g", 0.5),
		"no attrs":        alertTuple(9, payload(1, map[string]int64{"tag": 1}), nil, 0.5),
		"keys": alertTuple(9, payload(1, map[string]int64{"tag": -3, "a": 1 << 62, "": 0, "zz": math.MinInt64},
			"w", fixed(2, 1)), "g", 0.5),
		"unsorted keys": alertTuple(9, core.NewUTupleShared(0, []string{"w"}, []dist.Val{dist.ValOf(fixed(1, 1))},
			[]string{"tag", "a"}, []int64{1, 2}), nil, 0.5),
		"unsorted attrs":  alertTuple(9, payload(1, nil, "z", fixed(1, 0), "a", fixed(2, 0), "m", fixed(3, 3)), nil, 0.5),
		"repeated attr":   alertTuple(9, payload(1, nil, "w", fixed(1, 0), "a", fixed(2, 0), "w", fixed(3, 3)), nil, 0.5),
		"empty attr name": alertTuple(9, payload(1, nil, "", fixed(1, 0)), nil, 0.5),
		"no payload":      stream.NewTuple(stream.NewSchema("v"), 9, 1.0),
		"bad payload":     alertTuple(9, "not a tuple", nil, 0.5),
	}
	var many []any
	for i := 0; i < maxLineAttrs+4; i++ {
		many = append(many, fmt.Sprintf("a%02d", maxLineAttrs+4-i), fixed(float64(i), 0.5))
	}
	cases["more attrs than the stack sort"] = alertTuple(9, payload(1, nil, many...), nil, 0.5)
	for _, g := range []string{"a<b", "a>b", "a&b", `q"`, `b\s`, "tab\t", "nl\n", "\x00", "del\x7f", "\xff", "é", "\u2028", " spaced ", "~!@#$%^*()"} {
		cases["group "+g] = alertTuple(9, payload(1, nil, "w", fixed(1, 1)), g, 0.5)
		cases["attr "+g] = alertTuple(9, payload(1, nil, g, fixed(1, 1)), nil, 0.5)
		cases["key "+g] = alertTuple(9, payload(1, map[string]int64{g: 1}, "w", fixed(1, 1)), nil, 0.5)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, 1e-7, -1e-7,
		1e-6, 9.99999e-7, 1e21, 9.999999999999999e20, -1e21, 1e20, 1e-300, 1.7976931348623157e308, 123456.789, 0.1, 1e-10} {
		cases[fmt.Sprintf("mean %g", f)] = alertTuple(9, payload(1, nil, "w", fixed(f, 0)), nil, 0.5)
		cases[fmt.Sprintf("mean %g std 1", f)] = alertTuple(9, payload(1, nil, "w", fixed(f, 1)), nil, 0.5)
		cases[fmt.Sprintf("std %g", f)] = alertTuple(9, payload(1, nil, "w", fixed(2, f)), nil, 0.5)
		cases[fmt.Sprintf("p %g", f)] = alertTuple(9, payload(1, nil, "w", fixed(2, 1)), nil, f)
	}
	for name, tp := range cases {
		checkAlertLine(t, name, tp)
	}
}

// FuzzAlertLine checks AlertLine against the reference on fuzzed names,
// timestamps, keys and floats. flags picks which optional fields the tuple
// carries: bit 0 a group field, bit 1 a p field, bit 2 a key, bit 3 the
// group marker attribute.
func FuzzAlertLine(f *testing.F) {
	f.Add("7,3", "tag", int64(17), "weight", "x", int64(5000), 141.5, 12.25, 1e-7, 0.0, 0.8125, 0.5, uint8(15))
	f.Add("<g>", "", int64(-1), "b", "a", int64(0), math.Inf(1), 0.0, 5e-324, 1e21, math.NaN(), 1.0, uint8(2))
	f.Add("g", "k\xff", int64(0), "w", "w", int64(-9), -0.0, 1.0, 2.0, 3.0, 0.5, 0.25, uint8(7))
	f.Fuzz(func(t *testing.T, group, key string, keyVal int64, name1, name2 string, ts int64,
		m1, s1, m2, s2, p, exist float64, flags uint8) {
		attrs := []any{name1, fixed(m1, s1), name2, fixed(m2, s2)}
		if flags&8 != 0 {
			attrs = append(attrs, "group", fixed(1, 0))
		}
		var keys map[string]int64
		if flags&4 != 0 {
			keys = map[string]int64{key: keyVal}
		}
		var g, pv stream.Value
		if flags&1 != 0 {
			g = group
		}
		if flags&2 != 0 {
			pv = p
		}
		checkAlertLine(t, "fuzz", alertTuple(stream.Time(ts), payload(exist, keys, attrs...), g, pv))
	})
}

// TestAlertLineAllocs pins the emit path's cost: one allocation per alert,
// the line itself, for the alert shapes Q1 and Q3 emit.
func TestAlertLineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	hist := dist.NewHistogram(100, 164, []float64{0, 0, 3, 0, 1, 0, 0, 2})
	for name, tp := range map[string]*stream.Tuple{
		"q1": alertTuple(5000, payload(0.9, map[string]int64{"tag": 17}, "weight", dist.NewNormal(141.5, 12.25), "group", dist.PointMass{V: 3}), "7,3", 0.8125),
		"q3": alertTuple(2500, payload(1, nil, "weight", hist, "group", dist.PointMass{V: 1}), "2,9", 0.5),
	} {
		if avg := testing.AllocsPerRun(200, func() {
			if _, err := AlertLine(tp); err != nil {
				t.Fatal(err)
			}
		}); avg != 1 {
			t.Errorf("%s: %.2f allocs per alert, want 1", name, avg)
		}
	}
}
