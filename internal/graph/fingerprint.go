package graph

import "math/bits"

// Fingerprint returns a 64-bit hash of the graph's topology and per-node
// scheduling attributes (operator kind, parameter bytes, output bytes,
// MACs) plus the adjacency structure. Two graphs with identical
// structure and attributes share a fingerprint regardless of Name, so a
// schedule computed for one is valid — and cost-identical — for the other.
// This keys the solver-level schedule cache. The hash is computed once,
// when the graph is built or its document decoded (the graph is immutable
// afterwards), so hot serving paths that fingerprint per request — cache
// lookups, popularity taps, hit attribution — pay a field read, not an
// O(V+E) rehash.
//
// The hash takes the structure as a stream of 64-bit words and folds in
// one word per step with xxHash64's 8-byte step, then ends in xxHash64's
// avalanche. Its constants are fixed and it has no seed, so every process
// of every build that hashes this way agrees on every graph: replicas
// place keys on the fleet ring by fingerprint, and the ring relies on the
// avalanche to spread them over the whole uint64 circle.
func (g *Graph) Fingerprint() uint64 {
	g.mustBuilt()
	return g.fp
}

// Graph returns g. A built graph is its own document, so it serves
// wherever a Document that is built only when needed does: a schedule
// cache looks either up by Fingerprint and asks for Graph on a miss.
func (g *Graph) Graph() *Graph { return g }

// FingerprintVersion names the hash function Fingerprint computes, and
// changes whenever the function does. Replicas exchange it in their
// heartbeats: two builds that hash differently disagree on every key's
// place on the ring, so they must not share one.
const FingerprintVersion = 2

// xxHash64's primes.
const (
	prime1 uint64 = 0x9E3779B185EBCA87
	prime2 uint64 = 0xC2B2AE3D27D4EB4F
	prime3 uint64 = 0x165667B19E3779F9
	prime4 uint64 = 0x85EBCA77C2B2AE63
	prime5 uint64 = 0x27D4EB2F165667C5
)

// fpStep folds the word w into the hash state h: xxHash64's step for an
// 8-byte lane.
func fpStep(h, w uint64) uint64 {
	h ^= bits.RotateLeft64(w*prime2, 31) * prime1
	return bits.RotateLeft64(h, 27)*prime1 + prime4
}

// fingerprint hashes the structure of a graph with these nodes and
// successor lists; Build and DecodeJSON call it. The word stream is the
// node count, then per node its kind, its three weights, its out-degree
// and its successors in order.
func fingerprint(nodes []Node, succ [][]int) uint64 {
	h := fpStep(prime5, uint64(len(nodes)))
	for v := range nodes {
		n := &nodes[v]
		h = fpStep(h, uint64(n.Kind))
		h = fpStep(h, uint64(n.ParamBytes))
		h = fpStep(h, uint64(n.OutBytes))
		h = fpStep(h, uint64(n.MACs))
		h = fpStep(h, uint64(len(succ[v])))
		for _, w := range succ[v] {
			h = fpStep(h, uint64(w))
		}
	}
	// The avalanche: every input bit reaches every output bit.
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}
