package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

var goldenMembers = []string{"http://shard-a:8047", "http://shard-b:8047", "http://shard-c:8047"}

func goldenKey(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return hex.EncodeToString(sum[:])
}

// TestRingGoldenPinning: the key→shard mapping is part of the wire
// contract — every node derives routing locally, so a silent change to
// the hash geometry would scatter every cluster's cache. These pins
// were computed from the shipped implementation and must never drift.
func TestRingGoldenPinning(t *testing.T) {
	r, err := NewRing(goldenMembers, 0)
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct{ key, owner string }{
		{"77abc86d5c37fe261ce84966b29ddcc90a2ced0dc4ff460df01f852a98327ff8", "http://shard-a:8047"},
		{"2442ffeede6ab0781f47fb14845f2683237ccb5e6cd26af1d2be97f972d24b9e", "http://shard-b:8047"},
		{"7fc3c2c1eb9394af89bee45c15f85978439e1a17e71a3562f1706b10ea641b04", "http://shard-b:8047"},
		{"336e4be6f30cfa46f61ef5b3323991e17906cfee427513c00fef059ed4a9addd", "http://shard-a:8047"},
		{"899495bbab1c65f7145b3cd960010db25dda42adcb41885e3a375d011b8e2e90", "http://shard-a:8047"},
		{"d7837a735e63d4506ca548bc37308f3702329c20cdba0312a75ea7e971faccb4", "http://shard-a:8047"},
		{"9b531443d9d646ce4b32263a74ea384c0d1f871f1b8db9fb8849380e75d233ae", "http://shard-a:8047"},
		{"d1e73bb4cd6444b01d2827587bf640ed6f93046659afe3a58b4381536dbfe1af", "http://shard-a:8047"},
	}
	for i, g := range golden {
		if got := r.Successors(g.key, 1)[0]; got != g.owner {
			t.Errorf("golden %d: key %s owned by %s, pinned to %s", i, g.key[:12], got, g.owner)
		}
	}
}

// TestRingIsOrderAndDuplicateInvariant: the ring is a pure function of
// the member SET — shuffled, duplicated member lists build identical
// rings.
func TestRingIsOrderAndDuplicateInvariant(t *testing.T) {
	a, _ := NewRing(goldenMembers, 16)
	shuffled := []string{goldenMembers[2], goldenMembers[0], goldenMembers[1], goldenMembers[0]}
	b, _ := NewRing(shuffled, 16)
	for i := 0; i < 200; i++ {
		key := goldenKey(fmt.Sprintf("inv-%d", i))
		if a.Successors(key, 1)[0] != b.Successors(key, 1)[0] {
			t.Fatalf("member order changed ownership of %s", key[:12])
		}
	}
}

// TestRingRebalance: removing one of N members remaps ONLY the keys it
// owned (~1/N of the keyspace); every other key keeps its owner. This
// is the property that makes shard loss cheap — a modulo-N scheme
// would remap nearly everything.
func TestRingRebalance(t *testing.T) {
	const keys = 3000
	full, _ := NewRing(goldenMembers, 0)
	reduced, _ := NewRing(goldenMembers[:2], 0) // shard-c removed

	moved := 0
	for i := 0; i < keys; i++ {
		key := goldenKey(fmt.Sprintf("rebalance-%d", i))
		before, after := full.Successors(key, 1)[0], reduced.Successors(key, 1)[0]
		if before == goldenMembers[2] {
			moved++
			continue // orphaned keys must land somewhere else, any owner is fine
		}
		if before != after {
			t.Fatalf("key %s moved %s -> %s though its owner survived", key[:12], before, after)
		}
	}
	// The removed member owned ~1/3 of the keyspace; allow generous
	// slack for hash variance.
	lo, hi := keys/3-keys/10, keys/3+keys/10
	if moved < lo || moved > hi {
		t.Fatalf("%d/%d keys moved, want ~1/3 in [%d, %d]", moved, keys, lo, hi)
	}
}

// TestRingSuccessors: owner first, all members distinct, full fleet
// coverage when n exceeds the member count.
func TestRingSuccessors(t *testing.T) {
	r, _ := NewRing(goldenMembers, 0)
	key := goldenKey("succ")
	succ := r.Successors(key, 0)
	if len(succ) != len(goldenMembers) {
		t.Fatalf("successors %v, want all %d members", succ, len(goldenMembers))
	}
	if owner := r.Successors(key, 1)[0]; succ[0] != owner {
		t.Fatalf("successors %v do not start at owner %s", succ, owner)
	}
	seen := map[string]bool{}
	for _, m := range succ {
		if seen[m] {
			t.Fatalf("duplicate member in successors %v", succ)
		}
		seen[m] = true
	}
	if got := r.Successors(key, 2); len(got) != 2 || got[0] != succ[0] || got[1] != succ[1] {
		t.Fatalf("Successors(2) = %v, want prefix of %v", got, succ)
	}
}

func TestRingRejectsBadMemberSets(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty member set accepted")
	}
	if _, err := NewRing([]string{"http://a", ""}, 0); err == nil {
		t.Fatal("empty member name accepted")
	}
}
