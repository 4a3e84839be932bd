package attrdb

import (
	"sort"
	"testing"

	"github.com/hybridsel/hybridsel/internal/symbolic"
)

func TestBindingsKeyDeterministic(t *testing.T) {
	// Map iteration order is randomized; the key must not be.
	b := symbolic.Bindings{"n": 1100, "m": 64, "k": 7}
	want := "k=7,m=64,n=1100"
	for i := 0; i < 32; i++ {
		c := symbolic.Bindings{}
		for k, v := range b {
			c[k] = v
		}
		if got := BindingsKey(c); got != want {
			t.Fatalf("BindingsKey = %q, want %q", got, want)
		}
	}
}

func TestBindingsKeyDistinguishes(t *testing.T) {
	cases := []symbolic.Bindings{
		nil,
		{"n": 1},
		{"n": 2},
		{"m": 1},
		{"n": 1, "m": 1},
		{"n": -1},
	}
	seen := map[string]int{}
	for i, b := range cases {
		k := BindingsKey(b)
		if j, dup := seen[k]; dup {
			t.Fatalf("cases %d and %d collide on key %q", j, i, k)
		}
		seen[k] = i
	}
	if BindingsKey(nil) != "" || BindingsKey(symbolic.Bindings{}) != "" {
		t.Fatal("empty bindings must key to the empty string")
	}
}

func TestBindingsHash(t *testing.T) {
	a := BindingsHash(symbolic.Bindings{"n": 1100, "m": 64})
	b := BindingsHash(symbolic.Bindings{"m": 64, "n": 1100})
	if a != b {
		t.Fatal("hash must be order-independent")
	}
	if a == BindingsHash(symbolic.Bindings{"n": 1100, "m": 65}) {
		t.Fatal("hash should distinguish different values")
	}
	if BindingsHash(nil) != BindingsHash(symbolic.Bindings{}) {
		t.Fatal("nil and empty must hash equal")
	}
}

// TestSortedKeyAgreesWithBindingsKey pins the identities the client
// relies on when it canonicalises a request once: AppendSortedKey over
// the sorted names equals BindingsKey, and KeyHash of that key equals
// BindingsHash of the bindings.
func TestSortedKeyAgreesWithBindingsKey(t *testing.T) {
	for _, b := range []symbolic.Bindings{
		nil,
		{"n": 1100},
		{"n": 1100, "m": -64, "k": 0},
		{"tsteps": 1 << 40, "n": -1},
	} {
		names := make([]string, 0, len(b))
		for k := range b {
			names = append(names, k)
		}
		sort.Strings(names)
		values := make([]int64, len(names))
		for i, k := range names {
			values[i] = b[k]
		}
		key := string(AppendSortedKey(nil, names, values))
		if want := BindingsKey(b); key != want {
			t.Fatalf("AppendSortedKey = %q, BindingsKey = %q", key, want)
		}
		if KeyHash(key) != BindingsHash(b) {
			t.Fatalf("KeyHash(%q) != BindingsHash", key)
		}
	}
}
