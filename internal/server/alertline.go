package server

import (
	"bytes"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/stream"
)

// AlertLine returns the line EncodeLine(AlertMsg(t)) writes for a result
// tuple, error included, and is what both daemons emit. An alert in the
// canonical subset is written straight from the tuple, with no Msg, maps
// or reflection; everything else takes that reference path, which decides
// every result and error text.
//
// The subset: a "u" payload that is an uncertain tuple, sorted unique key
// names, at most maxLineAttrs attributes, every group, key and attribute
// name safe ASCII (no '"', '\\', '<', '>', '&', control bytes or bytes
// >= 0x80, which encoding/json would escape or replace), and every float
// finite (encoding/json refuses NaN and ±Inf). A line in the subset costs
// one allocation, the line itself.
func AlertLine(t *stream.Tuple) ([]byte, error) {
	if line, ok := alertLine(t); ok {
		return line, nil
	}
	m, err := AlertMsg(t)
	if err != nil {
		return nil, err
	}
	return EncodeLine(m)
}

// maxLineAttrs bounds the attributes alertLine sorts on its stack.
const maxLineAttrs = 16

// alertLine writes the canonical-subset line, or reports ok = false to
// hand t to the reference path. It mirrors AlertMsg field by field and
// json.Marshal(Msg) byte by byte: members in struct order, zero t_ms and
// empty keys, attrs or group omitted, map keys sorted, and the group marker
// attribute of a grouped alert left out.
func alertLine(t *stream.Tuple) ([]byte, bool) {
	uv, ok := t.TryField("u")
	if !ok {
		return nil, false
	}
	u, ok := uv.(*core.UTuple)
	if !ok {
		return nil, false
	}
	group, grouped := t.TryString("group")
	p := u.Exist
	if hp, ok := t.TryFloat("p"); ok {
		p = hp
	}
	names := u.Names()
	if len(names) > maxLineAttrs {
		return nil, false
	}
	// Insertion-sort the attribute indexes by name; the sort is stable, so
	// a repeated name (which the reference's map holds once) is adjacent.
	var order [maxLineAttrs]int
	n := 0
	for i, name := range names {
		if name == "group" && grouped {
			continue
		}
		j := n
		for ; j > 0 && names[order[j-1]] > name; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
		n++
	}

	var buf [512]byte
	b := append(buf[:0], `{"kind":"alert"`...)
	if t.TS != 0 {
		b = append(b, `,"t_ms":`...)
		b = strconv.AppendInt(b, int64(t.TS), 10)
	}
	if u.Keys.Len() > 0 {
		b = append(b, `,"keys":{`...)
		first, prev := true, ""
		for name, v := range u.Keys.Each() {
			if !first {
				if name <= prev {
					return nil, false // not sorted unique, as the map would be
				}
				b = append(b, ',')
			}
			if b, ok = appendLineString(b, name); !ok {
				return nil, false
			}
			b = append(b, ':')
			b = strconv.AppendInt(b, v, 10)
			first, prev = false, name
		}
		b = append(b, '}')
	}
	if n > 0 {
		b = append(b, `,"attrs":{`...)
		for j, i := range order[:n] {
			name := names[i]
			if j > 0 {
				if name == names[order[j-1]] {
					continue
				}
				b = append(b, ',')
			}
			if b, ok = appendLineString(b, name); !ok {
				return nil, false
			}
			b = append(b, ':')
			a := valAttr(u.Val(name))
			if a.Std == 0 {
				b, ok = appendLineFloat(b, a.Mean)
			} else {
				b = append(b, '[')
				if b, ok = appendLineFloat(b, a.Mean); ok {
					b = append(b, ',')
					b, ok = appendLineFloat(b, a.Std)
				}
				b = append(b, ']')
			}
			if !ok {
				return nil, false
			}
		}
		b = append(b, '}')
	}
	if group != "" {
		b = append(b, `,"group":`...)
		if b, ok = appendLineString(b, group); !ok {
			return nil, false
		}
	}
	b = append(b, `,"p":`...)
	if b, ok = appendLineFloat(b, p); !ok {
		return nil, false
	}
	b = append(b, "}\n"...)
	return bytes.Clone(b), true
}

// appendLineString appends s as a JSON string, or reports false when
// encoding/json would escape or replace any of its bytes.
func appendLineString(b []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return b, false
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), true
}

// appendLineFloat appends f as encoding/json writes a float64: 'f' format,
// 'e' below 1e-6 or from 1e21 up, with a two-digit negative exponent cut
// to one ("e-07" → "e-7"). It reports false for NaN and ±Inf, which
// encoding/json refuses.
func appendLineFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}
