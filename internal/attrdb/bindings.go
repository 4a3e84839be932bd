package attrdb

import (
	"hash/fnv"
	"sort"
	"strconv"

	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// BindingsKey returns a canonical, deterministic encoding of runtime
// bindings — the same set of name/value pairs always yields the same key,
// regardless of map iteration order. The offload runtime uses it to key
// its decision and execution memoization caches per (region, bindings).
//
// The encoding is "name=value" pairs sorted by name and joined with
// commas, e.g. "m=128,n=1100".
func BindingsKey(b symbolic.Bindings) string {
	if len(b) == 0 {
		return ""
	}
	names := make([]string, 0, len(b))
	n := 0
	for k := range b {
		names = append(names, k)
		n += len(k) + 2
	}
	sort.Strings(names)
	buf := make([]byte, 0, n+len(b)*8)
	for i, k := range names {
		buf = appendPair(buf, i, k, b[k])
	}
	return string(buf)
}

// AppendSortedKey appends the BindingsKey encoding of the bindings
// names[i]=values[i] to dst. names must already be sorted and distinct,
// as BindingsKey would sort a map's names; callers that hold a request's
// canonical order use it to build the key without re-sorting.
func AppendSortedKey(dst []byte, names []string, values []int64) []byte {
	for i, k := range names {
		dst = appendPair(dst, i, k, values[i])
	}
	return dst
}

// appendPair appends the i-th "name=value" pair of a canonical key.
func appendPair(dst []byte, i int, name string, v int64) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	dst = append(dst, name...)
	dst = append(dst, '=')
	return strconv.AppendInt(dst, v, 10)
}

// BindingsHash returns a 64-bit FNV-1a hash of the canonical encoding,
// for callers that shard or index by bindings without keeping the full
// key string.
func BindingsHash(b symbolic.Bindings) uint64 {
	h := fnv.New64a()
	h.Write([]byte(BindingsKey(b)))
	return h.Sum64()
}

// KeyHash returns the 64-bit FNV-1a hash of an already-canonicalized
// bindings key, without allocating. KeyHash(BindingsKey(b)) ==
// BindingsHash(b) == KeyLayout.Hash of the matching slot values, so the
// three key paths (map bindings, key strings, slot vectors) always agree
// on cache placement.
func KeyHash(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}
