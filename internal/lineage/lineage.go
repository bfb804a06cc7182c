// Package lineage tracks which base tuples produced each intermediate tuple
// (§3, §5.2). Intermediate operator outputs that may be correlated carry a
// lineage set instead of a full joint distribution; the final operator uses
// lineage overlap to decide which result tuples can be processed with fast
// independent-input techniques and which need joint treatment, and to share
// computation across results with overlapping lineage.
package lineage

import (
	"fmt"
	"sort"
)

// Set is a sorted, deduplicated set of base-tuple IDs.
type Set struct {
	ids []uint64
}

// NewSet builds a set from IDs (copied, sorted, deduplicated).
func NewSet(ids ...uint64) Set {
	if len(ids) <= 1 {
		// Every base tuple takes this path (its own ID as lineage): skip
		// the sort and its closure allocation.
		return Set{ids: append([]uint64(nil), ids...)}
	}
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Dedup in place.
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return Set{ids: out[:n]}
}

// Len returns the number of base tuples.
func (s Set) Len() int { return len(s.ids) }

// IDs returns the sorted ids (shared slice; callers must not mutate).
func (s Set) IDs() []uint64 { return s.ids }

// Contains reports membership.
func (s Set) Contains(id uint64) bool {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	return i < len(s.ids) && s.ids[i] == id
}

// FromSorted builds a set from ids that are already sorted and deduplicated
// — the incremental aggregation path maintains per-group lineage as a
// sorted multiset and snapshots it per emission, so re-sorting would waste
// the maintenance. The slice is copied; the precondition is checked (O(n))
// because a silently unsorted Set corrupts every downstream merge.
func FromSorted(ids []uint64) Set {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			panic("lineage: FromSorted input not strictly increasing")
		}
	}
	return Set{ids: append([]uint64(nil), ids...)}
}

// Adopt builds a set over ids without copying: the caller hands the slice
// over and never writes it again. It is the decoders' constructor — ids read
// off the wire into a slice the decoder already owns — so, unlike
// FromSorted, it reports a list that is not strictly increasing as an error
// instead of panicking.
func Adopt(ids []uint64) (Set, error) {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return Set{}, fmt.Errorf("lineage: id %d after %d, want strictly increasing", ids[i], ids[i-1])
		}
	}
	if len(ids) == 0 {
		return Set{}, nil
	}
	return Set{ids: ids}, nil
}

// UnionAll returns the union of all the given sets in one pass — collect,
// sort, dedup — instead of a pairwise fold, whose intermediate copies make
// deriving an aggregate's lineage from k single-tuple parents O(k²). This
// is the per-emission hot path of windowed aggregation.
func UnionAll(sets ...Set) Set {
	switch len(sets) {
	case 0:
		return Set{}
	case 1:
		return sets[0] // sets are immutable; sharing is safe
	}
	total := 0
	for _, s := range sets {
		total += len(s.ids)
	}
	out := make([]uint64, 0, total)
	for _, s := range sets {
		out = append(out, s.ids...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return Set{ids: out[:n]}
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	out := make([]uint64, 0, len(s.ids)+len(t.ids))
	i, j := 0, 0
	for i < len(s.ids) && j < len(t.ids) {
		switch {
		case s.ids[i] < t.ids[j]:
			out = append(out, s.ids[i])
			i++
		case s.ids[i] > t.ids[j]:
			out = append(out, t.ids[j])
			j++
		default:
			out = append(out, s.ids[i])
			i++
			j++
		}
	}
	out = append(out, s.ids[i:]...)
	out = append(out, t.ids[j:]...)
	return Set{ids: out}
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	out := make([]uint64, 0)
	i, j := 0, 0
	for i < len(s.ids) && j < len(t.ids) {
		switch {
		case s.ids[i] < t.ids[j]:
			i++
		case s.ids[i] > t.ids[j]:
			j++
		default:
			out = append(out, s.ids[i])
			i++
			j++
		}
	}
	return Set{ids: out}
}

// Overlaps reports whether the sets share any base tuple — the §5.2
// correlation test: results with disjoint lineage over independent base
// tuples are themselves independent.
func (s Set) Overlaps(t Set) bool {
	i, j := 0, 0
	for i < len(s.ids) && j < len(t.ids) {
		switch {
		case s.ids[i] < t.ids[j]:
			i++
		case s.ids[i] > t.ids[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Equal reports set equality.
func (s Set) Equal(t Set) bool {
	if len(s.ids) != len(t.ids) {
		return false
	}
	for i, v := range s.ids {
		if t.ids[i] != v {
			return false
		}
	}
	return true
}

// CorrelationGroups partitions the given lineage sets into groups of
// transitively-overlapping sets (union-find). Result indexes in the same
// group may be correlated and must be handled jointly; singleton groups are
// independent and take the fast path. Groups preserve first-seen order.
func CorrelationGroups(sets []Set) [][]int {
	parent := make([]int, len(sets))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	// Index base tuples to the sets containing them to avoid O(n²) pair
	// scans on large windows.
	owner := make(map[uint64]int)
	for i, s := range sets {
		for _, id := range s.IDs() {
			if j, seen := owner[id]; seen {
				union(i, j)
			} else {
				owner[id] = i
			}
		}
	}
	groupIdx := make(map[int]int)
	var groups [][]int
	for i := range sets {
		r := find(i)
		gi, ok := groupIdx[r]
		if !ok {
			gi = len(groups)
			groupIdx[r] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}
