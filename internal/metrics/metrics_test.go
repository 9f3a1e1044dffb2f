package metrics

import (
	"strings"
	"testing"

	"authradio/internal/geom"
	"authradio/internal/radio"
)

func tx(src int, kind radio.FrameKind) radio.Tx {
	return radio.Tx{Pos: geom.Point{}, Frame: radio.Frame{Src: src, Kind: kind}}
}

func TestCollectorCounts(t *testing.T) {
	c := NewCollector()
	h := c.Hook()
	h(1, []radio.Tx{tx(1, radio.KindData), tx(2, radio.KindAck)})
	h(2, nil)
	h(3, []radio.Tx{tx(1, radio.KindVeto)})
	if c.Rounds != 3 || c.ActiveRounds != 2 {
		t.Errorf("rounds=%d active=%d", c.Rounds, c.ActiveRounds)
	}
	if c.TotalTx() != 3 {
		t.Errorf("total tx = %d", c.TotalTx())
	}
	if c.TxByKind[radio.KindData] != 1 || c.TxByKind[radio.KindAck] != 1 || c.TxByKind[radio.KindVeto] != 1 {
		t.Errorf("kind counts wrong: %v", c.TxByKind)
	}
	if c.MaxConcurrent != 2 {
		t.Errorf("max concurrent = %d", c.MaxConcurrent)
	}
	if u := c.Utilisation(); u < 0.66 || u > 0.67 {
		t.Errorf("utilisation = %v", u)
	}
	if f := c.KindFraction(radio.KindData); f < 0.33 || f > 0.34 {
		t.Errorf("data fraction = %v", f)
	}
}

func TestCollectorEmpty(t *testing.T) {
	c := NewCollector()
	if c.Utilisation() != 0 || c.TotalTx() != 0 || c.KindFraction(radio.KindJam) != 0 {
		t.Error("empty collector nonzero")
	}
}

func TestString(t *testing.T) {
	c := NewCollector()
	h := c.Hook()
	h(1, []radio.Tx{tx(1, radio.KindJam)})
	s := c.String()
	for _, want := range []string{"rounds=1", "jam=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}
