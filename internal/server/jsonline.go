package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"
)

// LineDecoder decodes one connection's JSON protocol lines. A tuple line
// in the canonical subset EncodeLine writes is scanned straight into the
// positional BwTuple a decoded TUPLES frame holds, so JSON and binary
// tuples share one path from there: CheckTuple, BwTuple.UTuple, the frame
// ingest. Every other line — other kinds, and any tuple line outside the
// subset — takes the reference path, json.Unmarshal into Msg (plus
// BwEncoder.Positional for a tuple), so the scanner only accelerates that
// path: results and error texts are the reference's on every line.
//
// The subset is a top-level object whose members are exactly the lowercase
// "kind" (the string "tuple"), "source", "t_ms", "keys" and "attrs", each
// at most once, with at least one attribute. Strings carry no escapes, no
// control bytes and no bytes >= 0x80; numbers follow the JSON grammar and
// parse with the strconv calls encoding/json makes; t_ms and key values are
// integer literals; an attribute is a number or a two-number array; key
// and attribute names are non-empty and unique. A steady-state scanned
// line — the shape of the line before it — allocates nothing.
//
// One per connection; not safe for concurrent use.
type LineDecoder struct {
	enc     *BwEncoder
	last    *BwSchema // the previous scanned line's shape
	msg     Msg
	bt      [1]BwTuple
	scanned bool // bt holds the last line's tuple

	// Scanner scratch, in line order; names alias the line.
	keyNames  [][]byte
	keyVals   []int64
	attrNames [][]byte
	attrVals  []Attr
}

// NewLineDecoder returns a decoder with an empty shape table.
func NewLineDecoder() *LineDecoder {
	return &LineDecoder{enc: NewBwEncoder()}
}

// Decode reads one protocol line. A line json.Unmarshal rejects returns
// its error, and so does a tuple line with a null t_ms or key value, which
// json.Unmarshal would read as a silent zero. Otherwise the result is the
// line's message, valid until the next call; for a tuple line the scanner
// took, it carries only Kind, Source and T, and the columns are left for
// Tuple.
func (d *LineDecoder) Decode(line []byte) (*Msg, error) {
	if d.scan(line) {
		return &d.msg, nil
	}
	d.msg = Msg{}
	if err := json.Unmarshal(line, &d.msg); err != nil {
		return nil, err
	}
	if d.msg.Kind == KindTuple && bytes.Contains(line, []byte("null")) {
		if err := checkTupleNulls(line); err != nil {
			return nil, err
		}
	}
	return &d.msg, nil
}

// checkTupleNulls rejects a tuple line whose t_ms or a key value is null.
// The scanner never takes such a line (its integers are literals), so only
// the json.Unmarshal path needs it; the line has already decoded once.
func checkTupleNulls(line []byte) error {
	var raw struct {
		T    json.RawMessage            `json:"t_ms"`
		Keys map[string]json.RawMessage `json:"keys"`
	}
	if err := json.Unmarshal(line, &raw); err != nil {
		return err
	}
	if string(raw.T) == "null" {
		return fmt.Errorf("tuple t_ms is null")
	}
	for _, k := range slices.Sorted(maps.Keys(raw.Keys)) {
		if string(raw.Keys[k]) == "null" {
			return fmt.Errorf("tuple key %q is null", k)
		}
	}
	return nil
}

// Tuple returns the tuple of the line Decode just read as a one-tuple
// batch, the form BwDecoder.DecodeTuples returns, checked by CheckTuple.
// Errors are ParseTuple's texts. The batch is decoder scratch, valid until
// the next Decode.
func (d *LineDecoder) Tuple() ([]BwTuple, error) {
	if d.scanned {
		if err := CheckTuple(&d.bt[0]); err != nil {
			return nil, err
		}
	} else if err := d.enc.Positional(&d.msg, &d.bt[0]); err != nil {
		return nil, err
	}
	return d.bt[:], nil
}

// scan decodes a canonical tuple line into bt and msg, reporting false —
// with nothing to undo — for any line outside the subset.
func (d *LineDecoder) scan(line []byte) bool {
	d.scanned = false
	d.keyNames, d.keyVals = d.keyNames[:0], d.keyVals[:0]
	d.attrNames, d.attrVals = d.attrNames[:0], d.attrVals[:0]
	s := lineScanner{b: line}
	var (
		source []byte
		t      int64
		seen   uint8
	)
	if !s.open('{') {
		return false
	}
	for first := true; ; first = false {
		name, end, ok := s.member(first)
		if !ok {
			return false
		}
		if end {
			break
		}
		var bit uint8
		switch string(name) {
		case "kind":
			bit = 1 << 0
			kind, ok := s.str()
			if !ok || string(kind) != KindTuple {
				return false
			}
		case "source":
			bit = 1 << 1
			if source, ok = s.str(); !ok {
				return false
			}
		case "t_ms":
			bit = 1 << 2
			if t, ok = s.int(); !ok {
				return false
			}
		case "keys":
			bit = 1 << 3
			ok = d.scanKeys(&s)
		case "attrs":
			bit = 1 << 4
			ok = d.scanAttrs(&s)
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	if s.ws(); s.i != len(s.b) || seen&1 == 0 || len(d.attrNames) == 0 {
		return false
	}
	if !sortColumns(d.keyNames, d.keyVals) || !sortColumns(d.attrNames, d.attrVals) {
		return false
	}
	sc := d.shape(source)
	bt := &d.bt[0]
	*bt = BwTuple{
		Schema: sc, T: t, Shard: -1,
		Keys:  append(bt.Keys[:0], d.keyVals...),
		Attrs: append(bt.Attrs[:0], d.attrVals...),
	}
	d.msg = Msg{Kind: KindTuple, Source: sc.Source, T: t}
	d.scanned = true
	return true
}

// scanKeys scans the keys object, appending names and values in line
// order.
func (d *LineDecoder) scanKeys(s *lineScanner) bool {
	if !s.open('{') {
		return false
	}
	for first := true; ; first = false {
		name, end, ok := s.member(first)
		if !ok || end {
			return ok
		}
		v, ok := s.int()
		if !ok || len(name) == 0 {
			return false
		}
		d.keyNames = append(d.keyNames, name)
		d.keyVals = append(d.keyVals, v)
	}
}

// scanAttrs is scanKeys for the attrs object; the two stay apart because
// passing the value scanner as a function would make the scanner escape,
// one allocation per line.
func (d *LineDecoder) scanAttrs(s *lineScanner) bool {
	if !s.open('{') {
		return false
	}
	for first := true; ; first = false {
		name, end, ok := s.member(first)
		if !ok || end {
			return ok
		}
		a, ok := s.attr()
		if !ok || len(name) == 0 {
			return false
		}
		d.attrNames = append(d.attrNames, name)
		d.attrVals = append(d.attrVals, a)
	}
}

// shape returns the schema of the scanned line's (sorted) columns: the
// previous line's when they match — compared in place, no string built —
// else the encoder's, interned on first use.
func (d *LineDecoder) shape(source []byte) *BwSchema {
	if sc := d.last; sc != nil && string(source) == sc.Source &&
		sameNames(d.keyNames, sc.KeyNames) && sameNames(d.attrNames, sc.AttrNames) {
		return sc
	}
	d.last, _ = d.enc.intern(string(source), strs(d.keyNames), strs(d.attrNames))
	return d.last
}

func sameNames(got [][]byte, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i, n := range got {
		if string(n) != want[i] {
			return false
		}
	}
	return true
}

func strs(bs [][]byte) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = string(b)
	}
	return out
}

// sortColumns insertion-sorts a shape's column names, their values in step
// (shapes have a handful of columns, and canonical lines list them sorted
// already), and reports whether the names are unique.
func sortColumns[V any](names [][]byte, vals []V) bool {
	for i := 1; i < len(names); i++ {
		for j := i; j > 0; j-- {
			c := bytes.Compare(names[j-1], names[j])
			if c == 0 {
				return false
			}
			if c < 0 {
				break
			}
			names[j-1], names[j] = names[j], names[j-1]
			vals[j-1], vals[j] = vals[j], vals[j-1]
		}
	}
	return true
}

// lineScanner walks one line of the canonical subset. Every method reports
// false on anything outside it; the caller then takes the reference path.
type lineScanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *lineScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// open consumes c after optional whitespace.
func (s *lineScanner) open(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// member advances to an object's next member — first is true right after
// the '{' — and returns its name with the scanner at its value, or end at
// the closing '}'. A trailing comma is outside the subset.
func (s *lineScanner) member(first bool) (name []byte, end, ok bool) {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == '}' {
		s.i++
		return nil, true, true
	}
	if !first && !s.open(',') {
		return nil, false, false
	}
	if name, ok = s.str(); !ok || !s.open(':') {
		return nil, false, false
	}
	return name, false, true
}

// str scans a string without escapes, control bytes or non-ASCII bytes
// and returns its contents (aliasing the line).
func (s *lineScanner) str() ([]byte, bool) {
	if !s.open('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// number scans a JSON number literal.
func (s *lineScanner) number() ([]byte, bool) {
	s.ws()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.b) && s.b[s.i] == '0':
		s.i++
	case s.digits() == 0:
		return nil, false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			return nil, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// digits consumes a run of decimal digits and returns its length.
func (s *lineScanner) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// int scans an integer literal that fits an int64: encoding/json's
// strconv.ParseInt for an int64 field, which refuses a fraction or an
// exponent.
func (s *lineScanner) int() (int64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	return v, err == nil
}

// float scans a number literal encoding/json's strconv.ParseFloat accepts.
func (s *lineScanner) float() (float64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// attr scans a number or a [mean, std] pair.
func (s *lineScanner) attr() (Attr, bool) {
	if !s.open('[') {
		v, ok := s.float()
		return Attr{Mean: v}, ok
	}
	mean, ok := s.float()
	if !ok || !s.open(',') {
		return Attr{}, false
	}
	std, ok := s.float()
	if !ok || !s.open(']') {
		return Attr{}, false
	}
	return Attr{Mean: mean, Std: std}, true
}
