package main

import (
	"testing"

	"github.com/hybridsel/hybridsel/internal/client"
	"github.com/hybridsel/hybridsel/internal/server"
)

// TestRingOwnersMatchClusterRoute: the owners cluster.owner_pct counts
// against are the replicas the cluster client routes to first.
func TestRingOwnersMatchClusterRoute(t *testing.T) {
	keys := genLearn(1).Keys[:2000]
	owner, err := ringOwners(keys)
	if err != nil {
		t.Fatal(err)
	}
	var members []client.ClusterMember
	for _, id := range memberIDs {
		members = append(members, client.ClusterMember{ID: id, BaseURL: "http://127.0.0.1:1"})
	}
	cc, err := client.NewCluster(client.ClusterConfig{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for i, k := range keys {
		route := cc.Route(server.DecideRequest{Region: k.Region, Bindings: bindings(k.N)})
		if route[0] != memberIDs[owner[i]] {
			t.Fatalf("%v: ring owner %s, cluster client routes to %s first", k, memberIDs[owner[i]], route[0])
		}
	}
}
