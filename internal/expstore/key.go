// Package expstore is the repository's experiment result store: a
// content-addressed cache for solved artifacts (BU attack MDP solves,
// Bitcoin baselines, sweep cells, Monte Carlo batches, game
// equilibria). Each artifact kind is defined here, once, by its Spec
// type: the description the solve farm ships as a job spec, the source
// of the artifact's key, and the code that computes its bytes.
//
// Every artifact is identified by a canonical cache key derived from a
// deterministic encoding of its full, defaults-applied parameter struct
// plus a solver-version stamp. The store layers an in-memory LRU over
// an on-disk backend (one JSON blob per key, written atomically,
// corruption treated as a miss) and collapses concurrent requests for
// the same unsolved key into a single solve. cmd/bumdp, cmd/butables
// and cmd/buserve all answer from the same store, so CLI sweeps and
// HTTP requests share one artifact universe. The solve farm's verified
// completions fill it too (PutIfAbsent), a sweep shard's as its cells'
// busolve records, and only under keys it does not hold yet, so a
// stored blob never changes.
package expstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Version is the solver-version stamp mixed into every cache key.
// Bump it whenever a solver change can alter any stored result: every
// previously cached artifact then misses and is re-solved, so stale
// values can never be served across solver revisions.
//
// Version 2: the average-reward solver gained modified policy iteration
// and action elimination, which change iteration paths and therefore
// the exact bits of converged values (still within Epsilon).
//
// Version 3: the stationary distribution behind fork rates became an
// exact regenerative solve instead of a power iteration stopped at
// Epsilon, which changes the stored fork-rate bits (utilities are
// untouched).
//
// Version 4: the average-reward solver became policy iteration with
// exact regenerative evaluation, which changes round counts and the
// bits of converged values (still within Epsilon), and busolve and
// sweep-shard records carry their witness policies.
//
// Version 5: fork rates became the gain of the same regenerative
// first-passage evaluation the solves use, run on a 0/1 indicator of
// the forked states, instead of a sum over a separately solved
// stationary distribution, which changes the stored fork-rate bits
// (utilities, witnesses and counts are untouched).
//
// Version 6: ratio objectives are solved by Dinkelbach's iteration
// instead of a bisection, so stored ratio values are their witnesses'
// exact ratios, and probe counts, witnesses and fork rates change.
//
// Version 7: every solve runs on one goroutine, and busolve records no
// longer carry the sweep worker count (stats.Workers). Values, witnesses
// and probe and sweep counts are unchanged.
//
// Version 8: sweep shards solve each cell cold instead of warm-chaining
// each row, so shard records carry the cold sweep counts, and some
// non-compliant cells a different witness and value. Busolve records
// are unchanged.
//
// Version 9: a sweep-shard job delivers one busolve record per cell,
// stored under each cell's busolve key, instead of a shard record
// stored under the shard's key, so a shard job journaled before this
// version must not collapse onto a new one. Busolve records are
// unchanged.
const Version = 9

// Key derives the canonical cache key for an artifact of the given kind
// (a short lowercase tag such as "busolve") from its parameter value.
// The parameters are encoded canonically — JSON with lexicographically
// sorted object keys — so the key is independent of struct field order,
// and callers must pass defaults-applied ("normalized") parameters so
// that explicit defaults and elided zero values collide on the same
// key. The current Version stamp is mixed in.
func Key(kind string, params any) (string, error) {
	return keyAt(kind, Version, params)
}

// keyAt is Key at an explicit version stamp; tests use it to show that
// a version bump invalidates every key.
func keyAt(kind string, version int, params any) (string, error) {
	if kind == "" || strings.ContainsAny(kind, "/\\. \t\n") {
		return "", fmt.Errorf("expstore: invalid artifact kind %q", kind)
	}
	blob, err := canonicalJSON(params)
	if err != nil {
		return "", fmt.Errorf("expstore: encoding %s params: %w", kind, err)
	}
	msg := appendKeyPrefix(make([]byte, 0, len(kind)+8+len(blob)), kind, version)
	return keyOf(kind, append(msg, blob...)), nil
}

// appendKeyPrefix appends the start of a key's hashed message: the kind
// and the version stamp, each followed by '|'. The canonical encoding of
// the parameters follows it.
func appendKeyPrefix(msg []byte, kind string, version int) []byte {
	msg = strconv.AppendInt(append(append(msg, kind...), "|v"...), int64(version), 10)
	return append(msg, '|')
}

// keyOf is the key of a whole hashed message: the kind, '-', and the
// first 20 bytes of the message's SHA-256 in hex.
func keyOf(kind string, msg []byte) string {
	sum := sha256.Sum256(msg)
	var h [40]byte
	hex.Encode(h[:], sum[:20])
	return kind + "-" + string(h[:])
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest text that round-trips, in 'e' form with an unpadded exponent
// outside [1e-6, 1e21). f must be finite.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		// e-07 becomes e-7.
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// canonicalJSON encodes v deterministically: json.Marshal's compact
// output with every object's members sorted by key, so two values with
// the same fields and values encode alike whatever their Go field
// order. Scalars keep json.Marshal's text, so integers beyond 2^53 stay
// distinct (found by FuzzCanonicalKey). For valid UTF-8 and keys that
// need no escaping, as in every key type here, these are the bytes of
// decoding into generic values and marshaling again, without that round
// trip's allocations.
func canonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	out, _ := appendSorted(make([]byte, 0, len(raw)), raw)
	return out, nil
}

// appendSorted appends the compact JSON value at the start of raw with
// its objects' members sorted by key, and returns the rest of raw.
func appendSorted(dst, raw []byte) ([]byte, []byte) {
	open := raw[0]
	if open != '{' && open != '[' {
		n := bytes.IndexAny(raw, ",]}")
		if open == '"' {
			n = stringLen(raw)
		} else if n < 0 {
			n = len(raw)
		}
		return append(dst, raw[:n]...), raw[n:]
	}
	type member struct{ key, val []byte } // key is `"name":`, nil in arrays
	ms := make([]member, 0, 16)
	vals := make([]byte, 0, len(raw)) // the members' values, back to back
	// The closing bracket is open+2: '{'+2 is '}' and '['+2 is ']'.
	for raw = raw[1:]; raw[0] != open+2; {
		if raw[0] == ',' {
			raw = raw[1:]
		}
		var key []byte
		if open == '{' {
			n := stringLen(raw) + 1
			key, raw = raw[:n], raw[n:]
		}
		at := len(vals)
		vals, raw = appendSorted(vals, raw)
		ms = append(ms, member{key, vals[at:]})
	}
	if open == '{' {
		// Comparing the text inside the quotes orders escape-free keys
		// as their decoded strings.
		slices.SortStableFunc(ms, func(a, b member) int {
			return bytes.Compare(a.key[1:len(a.key)-2], b.key[1:len(b.key)-2])
		})
	}
	dst = append(dst, open)
	for i, m := range ms {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(dst, m.key...), m.val...)
	}
	return append(dst, open+2), raw[1:]
}

// stringLen is the length of the JSON string at the start of raw,
// quotes included.
func stringLen(raw []byte) int {
	for i := 1; ; i++ {
		switch raw[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
}
