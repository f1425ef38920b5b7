package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestTableTransitionsAndVersion: up/down transitions bump the
// version exactly once each; repeated observations of the same state
// are free.
func TestTableTransitionsAndVersion(t *testing.T) {
	r, _ := NewRing(goldenMembers, 8)
	tab := NewTable(r)
	if tab.Version() != 1 || tab.PeersUp() != 3 {
		t.Fatalf("fresh table: version %d, up %d", tab.Version(), tab.PeersUp())
	}
	if !tab.MarkDown(goldenMembers[0]) {
		t.Fatal("first MarkDown not a transition")
	}
	if tab.MarkDown(goldenMembers[0]) {
		t.Fatal("repeated MarkDown counted as a transition")
	}
	if tab.Version() != 2 || tab.PeersUp() != 2 || tab.Up(goldenMembers[0]) {
		t.Fatalf("after down: version %d, up %d", tab.Version(), tab.PeersUp())
	}
	if !tab.setState(goldenMembers[0], true) || tab.Version() != 3 || tab.PeersUp() != 3 {
		t.Fatalf("after recovery: version %d, up %d", tab.Version(), tab.PeersUp())
	}
}

// TestTableRouteFiltersDownMembers: Route returns the successor order
// with down members removed; with the whole fleet down it is empty.
func TestTableRouteFiltersDownMembers(t *testing.T) {
	r, _ := NewRing(goldenMembers, 8)
	tab := NewTable(r)
	key := goldenKey("route")
	all := r.Successors(key, 0)
	if got := tab.Route(key); fmt.Sprint(got) != fmt.Sprint(all) {
		t.Fatalf("all-up route %v, want %v", got, all)
	}
	tab.MarkDown(all[0])
	got := tab.Route(key)
	if len(got) != 2 || got[0] != all[1] || got[1] != all[2] {
		t.Fatalf("route with owner down %v, want %v", got, all[1:])
	}
	tab.MarkDown(all[1])
	tab.MarkDown(all[2])
	if got := tab.Route(key); len(got) != 0 {
		t.Fatalf("route with fleet down %v, want empty", got)
	}
}

// TestTableProbing: ProbeOnce marks 200-responders up and everyone
// else (503 drainers, dead sockets) down.
func TestTableProbing(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe hit %s", r.URL.Path)
		}
		if healthy.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // a member with nobody listening

	r, _ := NewRing([]string{srv.URL, dead.URL}, 8)
	tab := NewTable(r)
	tab.ProbeOnce()
	if !tab.Up(srv.URL) || tab.Up(dead.URL) || tab.PeersUp() != 1 {
		t.Fatalf("after probe: up(%s)=%v up(%s)=%v", srv.URL, tab.Up(srv.URL), dead.URL, tab.Up(dead.URL))
	}
	// A draining member (503) counts as down even though it answers.
	healthy.Store(false)
	tab.ProbeOnce()
	if tab.Up(srv.URL) {
		t.Fatal("503 responder still considered up")
	}
	healthy.Store(true)
	tab.ProbeOnce()
	if !tab.Up(srv.URL) {
		t.Fatal("recovered member not marked up")
	}
}
