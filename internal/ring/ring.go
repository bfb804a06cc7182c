// Package ring implements the consistent-hash ring that maps dedup keys
// to cluster workers. Each member contributes weight×vnodesPerWeight
// virtual points on a 64-bit hash circle; a key is owned by the member
// whose point is the first at or clockwise after the key's hash. The key
// hash is stream.KeyHash64 — the same SplitMix64 finalizer the in-process
// partitioner uses via stream.ShardOfKey — so a key's cluster owner and
// its in-process shard derive from one hash function.
//
// The ring is deterministic: the same members (in any insertion order)
// always produce the same point set and therefore the same key→owner
// mapping, which is what lets a router restart — or a second router —
// agree on placement without coordination. Membership edits bump a
// version counter so workers can detect stale routing, and Rebalance
// enumerates exactly the hash ranges whose ownership differs between two
// rings — the key ranges a membership change would move.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/stream"
)

// Member is one worker on the ring. Weight scales its share of the key
// space: a weight-2 member receives twice the virtual points (and so, in
// expectation, twice the keys) of a weight-1 member.
type Member struct {
	ID     string
	Weight int
}

// point is one virtual node: a position on the hash circle owned by a
// member.
type point struct {
	hash  uint64
	owner string
}

// Ring is a consistent-hash ring. Not safe for concurrent mutation;
// lookups are read-only and may be shared once membership is settled.
type Ring struct {
	vnodes  int // virtual points per weight unit
	members map[string]Member
	points  []point // sorted by (hash, owner)
	version uint64
}

// DefaultVnodes is the virtual-point count per weight unit when New is
// given n <= 0. 64 points per member keeps the max/min share ratio of a
// uniform ring within ~1.5× while the point set stays small enough to
// rebuild on every membership edit.
const DefaultVnodes = 64

// New creates an empty ring with n virtual points per weight unit
// (DefaultVnodes if n <= 0).
func New(n int) *Ring {
	if n <= 0 {
		n = DefaultVnodes
	}
	return &Ring{vnodes: n, members: map[string]Member{}}
}

// pointHash positions virtual node j of member id on the circle. The
// member identity is FNV-hashed once; each virtual node perturbs it with
// the same SplitMix64 finalizer used for key hashes, so points scatter
// uniformly regardless of how alike the member IDs are.
func pointHash(id string, j int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return mix64(h.Sum64() ^ (uint64(j)*0x9e3779b97f4a7c15 + 1))
}

// mix64 is the SplitMix64 finalizer (same constants as stream.KeyHash64,
// applied here to arbitrary 64-bit inputs rather than int64 keys).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts or replaces a member and bumps the version. Weight < 1 is
// clamped to 1.
func (r *Ring) Add(m Member) {
	if m.Weight < 1 {
		m.Weight = 1
	}
	r.members[m.ID] = m
	r.rebuild()
	r.version++
}

// Remove deletes a member (a no-op without a version bump if absent).
func (r *Ring) Remove(id string) {
	if _, ok := r.members[id]; !ok {
		return
	}
	delete(r.members, id)
	r.rebuild()
	r.version++
}

func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for id, m := range r.members {
		for j := 0; j < m.Weight*r.vnodes; j++ {
			r.points = append(r.points, point{hash: pointHash(id, j), owner: id})
		}
	}
	// Ties broken by owner ID so iteration order over the members map
	// cannot leak into the point order.
	sort.Slice(r.points, func(i, k int) bool {
		if r.points[i].hash != r.points[k].hash {
			return r.points[i].hash < r.points[k].hash
		}
		return r.points[i].owner < r.points[k].owner
	})
}

// Version counts membership edits. It starts at 0 (empty ring) and
// increments on every Add/Remove that changes the member set.
func (r *Ring) Version() uint64 { return r.version }

// Vnodes reports the ring's virtual-point count per weight unit.
func (r *Ring) Vnodes() int { return r.vnodes }

// Len reports the member count.
func (r *Ring) Len() int { return len(r.members) }

// Members returns the member set sorted by ID.
func (r *Ring) Members() []Member {
	ms := make([]Member, 0, len(r.members))
	for _, m := range r.members {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	return ms
}

// Lookup returns the member owning hash h: the owner of the first point
// at or clockwise after h, wrapping past the top of the circle. False if
// the ring is empty.
func (r *Ring) Lookup(h uint64) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].owner, true
}

// Owner maps a dedup-key value to its owning member via stream.KeyHash64.
func (r *Ring) Owner(key int64) (string, bool) {
	return r.Lookup(stream.KeyHash64(key))
}

// Successor returns the first member clockwise after id's lowest point
// that is not id itself — the member that holds id's replica. Member-
// granular (one successor per member, not per virtual point) so a
// failed member's state promotes onto a single peer. False if id is not
// on the ring or has no distinct successor.
func (r *Ring) Successor(id string) (string, bool) {
	if _, ok := r.members[id]; !ok || len(r.members) < 2 {
		return "", false
	}
	start := -1
	for i, p := range r.points {
		if p.owner == id {
			start = i
			break
		}
	}
	for k := 1; k <= len(r.points); k++ {
		p := r.points[(start+k)%len(r.points)]
		if p.owner != id {
			return p.owner, true
		}
	}
	return "", false
}

// Successors returns up to n distinct members for key, starting with the
// owner and walking clockwise — the replica placement list for the key.
func (r *Ring) Successors(key int64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := stream.KeyHash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var out []string
	seen := map[string]bool{}
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.owner] {
			seen[p.owner] = true
			out = append(out, p.owner)
		}
	}
	return out
}

// Spread reports each member's share of the hash circle (fraction of the
// 2^64 space it owns), keyed by member ID. Shares sum to 1 on a
// non-empty ring.
func (r *Ring) Spread() map[string]float64 {
	if len(r.points) == 0 {
		return nil
	}
	shares := map[string]float64{}
	const full = float64(1<<63) * 2
	for i, p := range r.points {
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		span := p.hash - prev // wraps correctly in uint64 arithmetic
		if len(r.points) == 1 {
			span = ^uint64(0)
		}
		shares[p.owner] += float64(span) / full
	}
	return shares
}

// Move is one relocated key range in a rebalance plan: hashes in
// (Start, End] move From → To. Start > End denotes the range wrapping
// past the top of the circle.
type Move struct {
	Start, End uint64
	From, To   string
}

func (m Move) String() string {
	return fmt.Sprintf("(%016x,%016x] %s→%s", m.Start, m.End, m.From, m.To)
}

// Rebalance enumerates the key ranges whose owner differs between old
// and cur — the minimal set of moves a membership change implies.
// Ownership is constant between adjacent boundary points of the two
// rings' union, so each union interval is classified by its end point
// and adjacent intervals with identical (From, To) coalesce.
func Rebalance(old, cur *Ring) []Move {
	if len(old.points) == 0 || len(cur.points) == 0 {
		return nil
	}
	bounds := make([]uint64, 0, len(old.points)+len(cur.points))
	for _, p := range old.points {
		bounds = append(bounds, p.hash)
	}
	for _, p := range cur.points {
		bounds = append(bounds, p.hash)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	// Dedup.
	uniq := bounds[:1]
	for _, b := range bounds[1:] {
		if b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	bounds = uniq

	var moves []Move
	for i, end := range bounds {
		start := bounds[(i+len(bounds)-1)%len(bounds)] // wraps on i==0
		// Every hash in (start, end] resolves to the same point on both
		// rings; the interval's end is a representative. (For the wrap
		// interval — start > end — every h ≤ end or h > start precedes
		// each ring's first point or follows its last, and both resolve
		// to the ring's first point, so the representative still holds.)
		from, _ := old.Lookup(end)
		to, _ := cur.Lookup(end)
		if from == to {
			continue
		}
		if n := len(moves); n > 0 && moves[n-1].End == start &&
			moves[n-1].From == from && moves[n-1].To == to {
			moves[n-1].End = end
			continue
		}
		moves = append(moves, Move{Start: start, End: end, From: from, To: to})
	}
	return moves
}
