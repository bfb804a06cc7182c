package core

import (
	"iter"
	"sort"
)

// KeySet is a tuple's certain keys: parallel name and value slices, names
// sorted ascending and unique. The zero value is the empty set.
//
// The names may alias an immutable table shared by many tuples (a binary
// decoder's interned schema columns), so a set never writes into its
// slices: Set builds fresh ones. Copies of a KeySet may therefore share
// backing arrays freely.
type KeySet struct {
	names []string
	vals  []int64
}

// SharedKeys builds a set over names and vals without copying. The caller
// guarantees names is sorted, unique, and never written again, and that
// vals (same length) is owned by the set from here on.
func SharedKeys(names []string, vals []int64) KeySet {
	if len(names) != len(vals) {
		panic("core: key names/values length mismatch")
	}
	if len(names) == 0 {
		return KeySet{}
	}
	return KeySet{names: names, vals: vals}
}

// Len is the number of keys.
func (k KeySet) Len() int { return len(k.names) }

// Get returns the named key's value and whether the set carries it.
func (k KeySet) Get(name string) (int64, bool) {
	for i, n := range k.names {
		if n == name {
			return k.vals[i], true
		}
	}
	return 0, false
}

// Each iterates the keys in ascending name order.
func (k KeySet) Each() iter.Seq2[string, int64] {
	return func(yield func(string, int64) bool) {
		for i, n := range k.names {
			if !yield(n, k.vals[i]) {
				return
			}
		}
	}
}

// Set replaces or inserts one key, copying both slices first so a shared
// name table (or another set's values) is never written.
func (k *KeySet) Set(name string, v int64) {
	i := sort.SearchStrings(k.names, name)
	if i < len(k.names) && k.names[i] == name {
		vals := append([]int64(nil), k.vals...)
		vals[i] = v
		k.vals = vals
		return
	}
	names := make([]string, len(k.names)+1)
	vals := make([]int64, len(k.vals)+1)
	copy(names, k.names[:i])
	copy(vals, k.vals[:i])
	names[i], vals[i] = name, v
	copy(names[i+1:], k.names[i:])
	copy(vals[i+1:], k.vals[i:])
	k.names, k.vals = names, vals
}
