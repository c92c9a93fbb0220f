// Package cluster implements the distributed serving tier: a router that
// fans queries out over N coconut-server index-node processes (each holding
// a subset of the cluster's hash-partitioned shards, see shard.Group) and
// merges per-node exact squared sums through the same deterministic
// collectors shards use in-process — so distributed answers are
// byte-identical to a single-node index at any node/shard topology.
//
// # Determinism
//
// The byte-identity argument is the in-process sharded one (package shard)
// lifted one level: per-shard exact answers are exhaustive over the shard's
// subset, distances are per-pair deterministic (the same accumulation runs
// whichever node holds the series), and the merge collector's contents are
// a pure function of the offered candidate set under the total order
// (squared distance, global ID). Nodes ship the collectors' raw accumulated
// squared sums (not re-squared reported distances), and Go's JSON float64
// encoding is shortest-round-trip, so the ordering keys cross the wire
// bit-exactly. Because the merge deduplicates by global ID and replicas of
// a shard hold identical data, duplicated shard coverage — hedged requests,
// retried fan-outs, overlapping replica answers — can never change an
// answer; only a shard with no successful response at all fails a query,
// loudly.
//
// # Replica reads, hedging, failover
//
// A topology may list the same shard on several nodes (R-way replication).
// Reads pick one replica per shard (rotating for load spread), group shards
// by chosen node, and fan one request per node. A request that errors or
// times out is retried on the remaining replicas with exponential backoff
// under a bounded per-query retry budget; when a hedge threshold is
// configured, a request still outstanding past it triggers a duplicate on
// another replica and the fastest response wins. Writes go to every replica
// of the target shard (write-all/read-one); a replica that misses a write
// is detected by the nodes' strict ID-contiguity check and taken out of
// rotation as stale rather than left to serve divergent answers.
//
// # Operations
//
// The router health-checks nodes in the background, exposes the public
// query/insert API of a single coconut-server (so clients need not care
// which they talk to), applies admission control to the insert fan-out
// (bounded in-flight batches, HTTP 429 beyond), and supports graceful
// drain: a draining node receives no new queries while in-flight ones
// finish. See docs/OPERATIONS.md for deployment and cmd/coconut-router for
// the process wrapper.
package cluster

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"

	"repro/internal/server"
)

// Node is one index-node entry in a topology: a coconut-server base URL, a
// build ID on that server, and the logical shards the build holds. Several
// nodes listing the same shard form that shard's replica set.
type Node struct {
	// Name identifies the node in logs, stats, and drain requests; unique
	// within the topology.
	Name string `json:"name"`
	// URL is the node's base URL, e.g. "http://10.0.0.7:8734".
	URL string `json:"url"`
	// Build is the cluster build ID on that node (e.g. "build-1"), created
	// with cluster_shards/node_shards matching this entry.
	Build string `json:"build"`
	// Shards lists the logical shards the node holds, each in
	// [0, Topology.Shards).
	Shards []int `json:"shards"`
}

// Topology is the router's static placement map: the cluster-wide logical
// shard count and every node's shard assignment. Every shard must be
// covered by at least one node; coverage by several nodes is R-way
// replication.
type Topology struct {
	// Shards is the cluster-wide logical shard count. Placement of global
	// series ID id is shard.Of(id, Shards) — a pure function, so every
	// component (builds, router, recovery) derives the same map.
	Shards int `json:"shards"`
	// SeriesLen is the indexed series length; queries are validated against
	// it before any fan-out.
	SeriesLen int `json:"series_len"`
	// Nodes lists the index nodes.
	Nodes []Node `json:"nodes"`
}

// Validate checks structural sanity: a shard count in [1,
// server.MaxClusterShards], unique node names, parseable URLs, shard indices
// in range, and every shard covered by at least one node.
func (t Topology) Validate() error {
	if t.Shards < 1 || t.Shards > server.MaxClusterShards {
		return fmt.Errorf("cluster: topology needs shards in [1, %d], got %d", server.MaxClusterShards, t.Shards)
	}
	if t.SeriesLen < 1 {
		return fmt.Errorf("cluster: topology needs series_len >= 1, got %d", t.SeriesLen)
	}
	if len(t.Nodes) == 0 {
		return fmt.Errorf("cluster: topology has no nodes")
	}
	covered := make([]bool, t.Shards)
	names := make(map[string]bool, len(t.Nodes))
	for i, n := range t.Nodes {
		if n.Name == "" {
			return fmt.Errorf("cluster: node %d has no name", i)
		}
		if names[n.Name] {
			return fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		names[n.Name] = true
		u, err := url.Parse(n.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("cluster: node %q has invalid URL %q", n.Name, n.URL)
		}
		if n.Build == "" {
			return fmt.Errorf("cluster: node %q has no build ID", n.Name)
		}
		if len(n.Shards) == 0 {
			return fmt.Errorf("cluster: node %q holds no shards", n.Name)
		}
		seen := make(map[int]bool, len(n.Shards))
		for _, si := range n.Shards {
			if si < 0 || si >= t.Shards {
				return fmt.Errorf("cluster: node %q shard %d outside [0, %d)", n.Name, si, t.Shards)
			}
			if seen[si] {
				return fmt.Errorf("cluster: node %q lists shard %d twice", n.Name, si)
			}
			seen[si] = true
			covered[si] = true
		}
	}
	for si, ok := range covered {
		if !ok {
			return fmt.Errorf("cluster: shard %d covered by no node", si)
		}
	}
	return nil
}

// Replicas returns the indices (into Nodes) of every node holding shard si,
// in topology order.
func (t Topology) Replicas(si int) []int {
	var out []int
	for i, n := range t.Nodes {
		for _, s := range n.Shards {
			if s == si {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// MinReplication returns the smallest replica-set size across shards — the
// cluster's effective R.
func (t Topology) MinReplication() int {
	r := len(t.Nodes)
	for si := 0; si < t.Shards; si++ {
		if n := len(t.Replicas(si)); n < r {
			r = n
		}
	}
	return r
}

// LoadTopology reads and validates a topology JSON file (the
// coconut-router -topology flag).
func LoadTopology(path string) (Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Topology{}, fmt.Errorf("cluster: reading topology: %w", err)
	}
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return Topology{}, fmt.Errorf("cluster: parsing topology %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}
