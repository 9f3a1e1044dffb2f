package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// CellKey is the canonical identity of one sweep cell. Two cells with
// equal keys compute byte-identical results; two cells that could
// differ in any result-affecting knob must differ in their keys. The
// producing layer (internal/experiment) is responsible for rendering
// every such knob into the fields below — in particular Mix, Deploy,
// Params and Extra must be *canonical* encodings (derived from the
// knob values, never from free-form display labels), so that two
// differently-labelled but identical cells share a key and two
// identically-labelled but different cells do not.
type CellKey struct {
	// Instance is the protocol instance under test, e.g.
	// "GossipRB/f2p0.5" (a registry instance name).
	Instance string
	// Mix is the canonical rendering of the cell's adversary mix:
	// every fraction, budget and probability, not the display label.
	Mix string
	// Deploy encodes the deployment's generating knobs (kind, counts,
	// geometry); Fingerprint is topo.Deployment.Fingerprint over the
	// generated content. Both appear in the key: the knobs make keys
	// explainable and collision-diagnosable, the content hash makes
	// the key robust to generator changes that move positions without
	// touching any knob.
	Deploy      string
	Fingerprint uint64
	// Rep is the repetition index within the cell's scenario.
	Rep int
	// Seed is the root random seed.
	Seed uint64
	// Full records the paper-scale flag (it selects grid sizes and
	// round caps at enumeration time; keyed so a quick and a full cell
	// can never alias).
	Full bool
	// Params is the canonical sorted rendering of the cell's driver
	// knobs (name=value, comma-joined).
	Params string
	// Extra carries the remaining result-determining knobs of the
	// producing layer (message bits/length, tolerances, round caps, …).
	Extra string
}

// escape makes free-text fields safe to embed in the '|'-separated,
// '='-tagged key string: the rendering stays injective because no
// escaped field can introduce a separator.
func escape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	return strings.ReplaceAll(s, "|", "%7C")
}

// String renders the key in its canonical grammar:
//
//	v<schema>|inst=…|mix=…|deploy=…|fp=<16 hex>|rep=…|seed=…|full=…|params=…|extra=…
//
// The schema stamp leads so that a grammar change re-addresses every
// cell at once. The rendering is injective over keys with
// separator-free fields (escape guarantees that), which is what lets
// the cache verify an entry by comparing stored and requested strings.
func (k CellKey) String() string {
	return fmt.Sprintf("v%d|inst=%s|mix=%s|deploy=%s|fp=%016x|rep=%d|seed=%d|full=%t|params=%s|extra=%s",
		Schema, escape(k.Instance), escape(k.Mix), escape(k.Deploy), k.Fingerprint,
		k.Rep, k.Seed, k.Full, escape(k.Params), escape(k.Extra))
}

// ID returns the cell's content address: the hex SHA-256 of the
// canonical key string. It is the cache filename and the handle
// `rbexp serve` exposes under /results/<id>.
func (k CellKey) ID() string {
	sum := sha256.Sum256([]byte(k.String()))
	return hex.EncodeToString(sum[:])
}
