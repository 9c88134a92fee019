// Package expstore is the repository's experiment result store: a
// content-addressed cache for solved artifacts (BU attack MDP solves,
// Bitcoin baselines, sweep cells, Monte Carlo batches, game
// equilibria).
//
// Every artifact is identified by a canonical cache key derived from a
// deterministic encoding of its full, defaults-applied parameter struct
// plus a solver-version stamp. The store layers an in-memory LRU over
// an on-disk backend (one JSON blob per key, written atomically,
// corruption treated as a miss) and collapses concurrent requests for
// the same unsolved key into a single solve. cmd/bumdp, cmd/butables
// and cmd/buserve all answer from the same store, so CLI sweeps and
// HTTP requests share one artifact universe.
package expstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
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
const Version = 4

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
	h := sha256.New()
	fmt.Fprintf(h, "%s|v%d|", kind, version)
	h.Write(blob)
	return kind + "-" + hex.EncodeToString(h.Sum(nil))[:40], nil
}

// canonicalJSON encodes v deterministically: the value is marshaled,
// reparsed into generic form, and re-marshaled, which sorts every
// object's keys lexicographically (encoding/json sorts map keys). Two
// structurally identical values — same field names and values,
// regardless of Go field order — encode to the same bytes.
//
// Numbers are reparsed with UseNumber so the original literal survives
// verbatim: decoding into float64 would fold integers beyond 2^53 onto
// the same key (found by FuzzCanonicalKey). Literal text is preserved
// either way, so keys for float64-representable params are unchanged.
func canonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	return json.Marshal(tree)
}
