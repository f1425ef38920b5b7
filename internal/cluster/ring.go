// Package cluster is the service's federation layer: a deterministic
// consistent-hash ring over canon content keys that lets N bisramgend
// shards serve one keyspace, a health-probed member table that routes
// around down shards, and a peer client (built on sweep.Client's
// retrying machinery) that the bisramgate gateway and the store's
// peer-fetch tier share.
//
// Sharding by content key works because the whole service is
// content-addressed: a compile request's canon key names its result
// bytes, so ANY shard produces the identical artifact for a key and
// re-routing (failover, rebalance) can never serve wrong data — at
// worst a different shard recompiles what another shard had cached.
// The ring exists purely to make the cache effective: pinning a key to
// one owner concentrates its hits on one disk instead of N.
//
// Determinism: both the ring geometry (member+vnode point hashes) and
// the key mapping are pure SHA-256 functions of the member names and
// key text — no RNG, no time, no per-process state — so every node in
// a fleet, and every test, derives the identical ring from the same
// member list.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/cerr"
)

// DefaultVNodes is the virtual-node count per member: 64 points per
// member keeps the expected load imbalance under a few percent for
// small fleets while the ring stays tiny (N·64 points).
const DefaultVNodes = 64

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a member.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring over a member set.
// Construct with NewRing; methods are safe for concurrent use.
type Ring struct {
	points  []ringPoint // sorted by hash
	members []string    // sorted, deduplicated
	vnodes  int
}

// pointHash positions one virtual node: the first 8 bytes of
// SHA-256("<member>#<index>"), big-endian.
func pointHash(member string, vnode int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", member, vnode)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash positions a content key: the first 8 bytes of SHA-256 of the
// key text. Canon keys are themselves SHA-256 hex, but hashing again
// keeps the mapping well-defined for any key shape and decouples ring
// placement from the canon format.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds the ring for the given member names (shard base URLs
// by convention). Duplicates collapse; order is irrelevant — the ring
// is a pure function of the member SET. vnodes <= 0 takes
// DefaultVNodes.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := map[string]bool{}
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" {
			return nil, cerr.New(cerr.CodeInvalidParams, "cluster: empty member name")
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		return nil, cerr.New(cerr.CodeInvalidParams, "cluster: ring needs at least one member")
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, vnodes: vnodes}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for _, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m, v), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between members is astronomically unlikely
		// but must still order deterministically.
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Members returns the sorted member set.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// successorIndex locates the first ring point at or after h (wrapping).
func (r *Ring) successorIndex(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Successors returns up to n DISTINCT members in ring order starting
// at the key's owner — the owner first, then the failover candidates
// in the order routing should try them.
func (r *Ring) Successors(key string, n int) []string {
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := map[string]bool{}
	start := r.successorIndex(keyHash(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}
