package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// State is a peer's observed health.
type State int

// Membership states. Alive peers are owners and forwarding targets;
// suspect peers remain owners (requests for their keys fall back to a
// local solve) so one dropped probe does not reshuffle the ring; dead
// peers leave the ring and their key ranges move to the clockwise
// successors.
const (
	StateAlive State = iota
	StateSuspect
	StateDead
)

// String returns the state's metric/JSON label.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	h      uint64
	member string
}

// ring is a consistent-hash ring over the uint64 fingerprint space.
// Each member contributes virtualNodes points (FNV-64a of "url#i"), and a
// fingerprint's owner is the member of the first point at or clockwise
// after it. The ring is immutable once built; Node swaps whole rings on
// membership change, which makes rebalancing deterministic: the ring is
// a pure function of the member set.
type ring struct {
	points []ringPoint
}

// newRing builds a ring over members (deduplicated by the caller). An
// empty member list yields a ring whose owner is always "".
func newRing(members []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(members)*virtualNodes)}
	for _, m := range members {
		for i := 0; i < virtualNodes; i++ {
			r.points = append(r.points, ringPoint{h: pointHash(m, i), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// Hash ties (vanishingly rare) break by member URL so every
		// replica orders identical point sets identically.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// pointHash positions virtual node i of member m on the ring. The raw
// FNV sum is run through a 64-bit finalizer: member URLs in a real
// fleet differ only in a digit or two near the end (ports, last host
// octet), and FNV-64a's avalanche on late-byte differences is too weak
// to interleave the members' points — without the mix one member can
// own 70%+ of the keyspace.
func pointHash(m string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(m))
	h.Write([]byte{'#'})
	h.Write([]byte(strconv.Itoa(i)))
	return mix64(h.Sum64())
}

// mix64 is the murmur3 fmix64 finalizer: a bijection with full
// avalanche, so correlated inputs yield decorrelated ring positions.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// owner returns the member owning fp, or "" for an empty ring.
func (r *ring) owner(fp uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= fp })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the ring's start
	}
	return r.points[i].member
}
