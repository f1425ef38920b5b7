package cluster

import (
	"context"
	"net/http"
	"time"

	"repro/internal/sweep"
)

// PeerRetry is the policy of every fleet exchange, the gateway's
// routing and a shard's peer fetch alike: two quick attempts per peer,
// then the caller moves on to the next ring member (or, for a peer
// fetch, recompiles locally). The second attempt covers a keep-alive
// connection the peer closed just as a POST went out, which net/http
// does not replay; without it one stale connection would mark a
// healthy peer down.
var PeerRetry = sweep.RetryPolicy{
	MaxAttempts: 2,
	BaseDelay:   50 * time.Millisecond,
	MaxDelay:    500 * time.Millisecond,
}

// peerFetchTimeout bounds one whole FetchObject call.
const peerFetchTimeout = 10 * time.Second

// Peers is the shard-to-shard client: it resolves local store misses
// against the key's ring neighbours. The member table is its only
// memory of dead peers: a transport failure marks the peer down, and
// fetches route around it until the prober brings it back.
type Peers struct {
	Table *Table
	// Self is this shard's own base URL; it is skipped during fetch so
	// a shard never asks itself.
	Self string
	// Client performs the exchanges; NewPeers installs one with
	// PeerRetry.
	Client *sweep.Client
}

// NewPeers builds the peer client for a table.
func NewPeers(table *Table, self string) *Peers {
	return &Peers{Table: table, Self: self, Client: &sweep.Client{Retry: PeerRetry}}
}

// FetchObject asks the key's ring neighbours (owner first, up members
// only, self excluded) for the raw object image via GET
// /v1/objects/{key}. The first 200 wins; transport failures mark the
// peer down and move on. The returned bytes are unverified — the
// store's verified-read path decides whether to trust them. The
// signature matches store.PeerFetchFunc.
func (p *Peers) FetchObject(key string) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), peerFetchTimeout)
	defer cancel()
	for _, peer := range p.Table.Route(key) {
		if peer == p.Self {
			continue
		}
		resp, err := p.Client.DoRaw(ctx, http.MethodGet, peer+"/v1/objects/"+key, nil)
		if err != nil {
			// Transport-level failure: route around the peer at request
			// speed; the prober brings it back.
			p.Table.MarkDown(peer)
			if ctx.Err() != nil {
				return nil, false
			}
			continue
		}
		if resp.Status == http.StatusOK {
			return resp.Body, true
		}
		// 404 (peer doesn't have it) or anything else: try the next
		// neighbour.
	}
	return nil, false
}
