package server

import (
	"context"
	"encoding/json"
	"net/http"
	"time"
)

// Follower registries: a registry opened with RegistryOptions.Leader set
// mirrors a leader provd instead of owning data directories. open builds
// each of its stores as a memory-only follower (writes redirect to the
// leader) with an applier goroutine tailing the leader's wal stream. The
// leader's GET /stores names the stores opened at boot, and a discovery
// loop keeps polling it, so stores created on the leader appear here
// through Create without a restart. Stores are never dropped on a poll miss
// (a transiently unreachable leader must not tear down working replicas).

// discoveryPoll is the store-discovery poll period.
const discoveryPoll = 2 * time.Second

// discoveryTimeout bounds one GET /stores poll.
const discoveryTimeout = 5 * time.Second

// discoverLoop mirrors the leader's store set until the registry closes.
func (r *Registry) discoverLoop(ctx context.Context) {
	t := time.NewTicker(discoveryPoll)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.discoverOnce(ctx)
		case <-ctx.Done():
			return
		}
	}
}

// discoverOnce creates a follower store for every name the leader lists
// that is not mirrored yet.
func (r *Registry) discoverOnce(ctx context.Context) {
	for _, name := range r.leaderStores(ctx) {
		if _, _, err := r.Create(name); err != nil && r.opts.Logger != nil {
			r.opts.Logger.Debug("store discovery: create failed", "store", name, "err", err)
		}
	}
}

// leaderStores polls GET /stores on the leader and returns the valid store
// names it lists. Errors are logged and yield no names; the next poll
// retries.
func (r *Registry) leaderStores(ctx context.Context) []string {
	ctx, cancel := context.WithTimeout(ctx, discoveryTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.opts.Leader+"/stores", nil)
	if err != nil {
		return nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if r.opts.Logger != nil {
			r.opts.Logger.Debug("store discovery failed", "leader", r.opts.Leader, "err", err)
		}
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var list StoreListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil
	}
	var names []string
	for _, info := range list.Stores {
		if ValidStoreName(info.Name) {
			names = append(names, info.Name)
		}
	}
	return names
}
