// Package metrics collects channel-level measurements from a running
// simulation: transmission counts broken down by protocol role (data,
// acknowledgement, veto, jam), channel utilisation, and completion-time
// distributions. The paper's evaluation reports "the number of
// broadcasts needed for all nodes to complete the protocol"; the
// per-kind breakdown additionally shows where the authenticated
// protocols spend their energy (mostly acknowledgements, which is the
// cost of using silence as the authenticator).
package metrics

import (
	"fmt"
	"strings"

	"authradio/internal/radio"
)

// Collector accumulates per-round statistics. Attach it to an engine
// with Engine.OnRound = c.Hook(), or registered at build time with
// core.WithRoundHook(c.Hook()), which also chains multiple hooks.
// It is not safe for concurrent mutation; the engine invokes hooks from
// a single goroutine.
type Collector struct {
	// TxByKind counts transmissions per radio.FrameKind.
	TxByKind map[radio.FrameKind]uint64
	// ActiveRounds counts rounds with at least one transmission.
	ActiveRounds uint64
	// Rounds counts all resolved (non-skipped) rounds.
	Rounds uint64
	// MaxConcurrent is the largest number of simultaneous
	// transmissions observed in one round (spatial reuse at work).
	MaxConcurrent int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{TxByKind: make(map[radio.FrameKind]uint64)}
}

// Hook returns a function suitable for sim.Engine.OnRound.
func (c *Collector) Hook() func(r uint64, txs []radio.Tx) {
	return func(r uint64, txs []radio.Tx) {
		c.Rounds++
		if len(txs) == 0 {
			return
		}
		c.ActiveRounds++
		if len(txs) > c.MaxConcurrent {
			c.MaxConcurrent = len(txs)
		}
		for i := range txs {
			c.TxByKind[txs[i].Frame.Kind]++
		}
	}
}

// TotalTx returns the total number of transmissions observed.
func (c *Collector) TotalTx() uint64 {
	var t uint64
	for _, v := range c.TxByKind {
		t += v
	}
	return t
}

// Utilisation returns the fraction of resolved rounds with activity.
func (c *Collector) Utilisation() float64 {
	if c.Rounds == 0 {
		return 0
	}
	return float64(c.ActiveRounds) / float64(c.Rounds)
}

// KindFraction returns the share of transmissions of the given kind.
func (c *Collector) KindFraction(k radio.FrameKind) float64 {
	total := c.TotalTx()
	if total == 0 {
		return 0
	}
	return float64(c.TxByKind[k]) / float64(total)
}

// String renders a compact human-readable summary.
func (c *Collector) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rounds=%d active=%.1f%% tx=%d maxConcurrent=%d",
		c.Rounds, 100*c.Utilisation(), c.TotalTx(), c.MaxConcurrent)
	kinds := []radio.FrameKind{radio.KindData, radio.KindAck, radio.KindVeto, radio.KindJam}
	for _, k := range kinds {
		if c.TxByKind[k] > 0 {
			fmt.Fprintf(&sb, " %s=%d(%.0f%%)", k, c.TxByKind[k], 100*c.KindFraction(k))
		}
	}
	return sb.String()
}
