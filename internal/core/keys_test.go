package core

import (
	"fmt"
	"testing"

	"repro/internal/dist"
)

// keyList renders a set's keys in iteration order.
func keyList(ks KeySet) string {
	s := ""
	for k, v := range ks.Each() {
		s += fmt.Sprintf("%s=%d ", k, v)
	}
	return s
}

// TestKeySetSharedTableUntouched: tuples lifted over one shared, immutable
// key-name table (a decoder's interned schema) may update and add keys
// without ever writing the table or a sibling's values.
func TestKeySetSharedTableUntouched(t *testing.T) {
	table := []string{"reader", "tag"}
	mk := func(a, b int64) *UTuple {
		return NewUTupleShared(1, []string{"v"}, []dist.Val{{Mu: 1}}, table, []int64{a, b})
	}
	u, sib := mk(1, 2), mk(3, 4)
	u.SetKey("tag", 20)
	u.SetKey("area", 7)
	u.SetKey("zone", 9)
	if got := keyList(u.Keys); got != "area=7 reader=1 tag=20 zone=9 " {
		t.Errorf("updated keys %q", got)
	}
	if table[0] != "reader" || table[1] != "tag" || len(table) != 2 {
		t.Errorf("shared table written: %v", table)
	}
	if got := keyList(sib.Keys); got != "reader=3 tag=4 " {
		t.Errorf("sibling keys %q", got)
	}
	c := u.Clone()
	c.SetKey("reader", 100)
	if u.Key("reader") != 1 || c.Key("reader") != 100 {
		t.Errorf("clone shares a written value: %d / %d", u.Key("reader"), c.Key("reader"))
	}
	if _, ok := u.Keys.Get("missing"); ok || u.HasKey("missing") {
		t.Error("absent key reported present")
	}
}

// TestNewUTupleSharedKeyAllocs: lifting a one-key tuple costs the same
// two allocations as a keyless one — the tuple, with its key value and its
// lineage id, and its attribute slots.
func TestNewUTupleSharedKeyAllocs(t *testing.T) {
	names, keyNames := []string{"v", "w"}, []string{"tag"}
	attrs := []dist.Val{{Mu: 1}, {Mu: 2, Sigma: 0.5}}
	keys := []int64{17}
	keyless := testing.AllocsPerRun(100, func() { NewUTupleShared(1, names, attrs, nil, nil) })
	keyed := testing.AllocsPerRun(100, func() { NewUTupleShared(1, names, attrs, keyNames, keys) })
	if keyed != keyless || (!raceEnabled && keyed != 2) {
		t.Errorf("keyed lift %v allocs, keyless %v, want 2", keyed, keyless)
	}
	u := NewUTupleShared(1, names, attrs, keyNames, keys)
	keys[0] = 99
	if u.Key("tag") != 17 {
		t.Errorf("key aliases the caller's scratch: %d", u.Key("tag"))
	}
}
