package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// ProtocolDriver wires one broadcast protocol into a world under
// construction. Drivers live with their protocol packages (or entirely
// outside this repository) and make themselves known through Register;
// Build resolves the configured protocol through the registry, so new
// protocols plug in without touching this package — see
// internal/protocols for the glue that pulls in the built-in drivers.
type ProtocolDriver interface {
	// Name is the driver's canonical registry name (e.g.
	// "NeighborWatchRB"). Lookup is case-insensitive.
	Name() string
	// Aliases are additional lookup names (short forms like "nw").
	Aliases() []string
	// Build constructs the protocol's devices into the world: it must
	// set the schedule cycle (WorldBuilder.SetCycle) and add the source
	// and one node per participating device. cfg has been validated and
	// defaulted; roles, participation and schedule construction are
	// available on the builder.
	Build(cfg Config, b *WorldBuilder) error
}

// Instance is one named preset of a parameterised protocol family: a
// preset name and the knobs it pins. The registry addresses it as
// "<driver name>/<preset name>" ("GossipRB/f2p0.5").
type Instance struct {
	// Name is the preset's name within its family. It must be non-empty
	// and must not contain '/' (the family separator); lookups are
	// case-insensitive like driver names.
	Name string
	// Params are the knobs this preset pins. When the instance is
	// built, they are merged over Config.Params — the preset wins, so
	// an instance name always denotes the same protocol variant.
	Params Params
}

// FamilyDriver is a ProtocolDriver that exposes named presets of
// itself — a protocol family swept as a unit by the experiment
// harness. The presets appear in Instances() as "<name>/<preset>" and
// resolve through Lookup like any other protocol name; building one
// overlays the preset's Params and delegates to the family's Build.
// The bare driver name remains buildable with default knobs.
type FamilyDriver interface {
	ProtocolDriver
	// Instances returns the family's presets in display order. The
	// result must be stable across calls; Register validates the names
	// once at registration.
	Instances() []Instance
}

var (
	regMu sync.RWMutex
	// drivers maps lower-cased names and aliases to their driver.
	drivers = make(map[string]ProtocolDriver)
	// canonical holds the sorted canonical names.
	canonical []string
)

// Register adds a protocol driver to the registry. It panics if the
// driver's name or any alias (case-insensitively) is already taken, if
// a name contains the '/' family separator, or if a FamilyDriver's
// instance names are empty or collide — registration happens in
// package init functions, where any of these is a programming error.
func Register(d ProtocolDriver) {
	name := d.Name()
	if name == "" {
		panic("core: Register with empty driver name")
	}
	keys := append([]string{name}, d.Aliases()...)
	for _, k := range keys {
		if strings.Contains(k, "/") {
			panic(fmt.Sprintf("core: protocol name %q contains the instance separator '/'", k))
		}
	}
	if fam, ok := d.(FamilyDriver); ok {
		seen := make(map[string]bool)
		for _, inst := range fam.Instances() {
			switch {
			case inst.Name == "":
				panic(fmt.Sprintf("core: family %q has an empty instance name", name))
			case strings.Contains(inst.Name, "/"):
				panic(fmt.Sprintf("core: instance %q of family %q contains '/'", inst.Name, name))
			case seen[strings.ToLower(inst.Name)]:
				panic(fmt.Sprintf("core: duplicate instance %q in family %q", inst.Name, name))
			}
			seen[strings.ToLower(inst.Name)] = true
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	for _, k := range keys {
		if _, dup := drivers[strings.ToLower(k)]; dup {
			panic(fmt.Sprintf("core: duplicate protocol registration %q", k))
		}
	}
	for _, k := range keys {
		drivers[strings.ToLower(k)] = d
	}
	canonical = append(canonical, name)
	slices.Sort(canonical)
}

// Lookup resolves a protocol name or alias, case-insensitively. A name
// of the form "<family>/<preset>" resolves a family driver's instance:
// the returned driver's canonical Name is "<family name>/<preset
// name>" and its Build overlays the preset's Params.
func Lookup(name string) (ProtocolDriver, bool) {
	regMu.RLock()
	d, ok := drivers[strings.ToLower(name)]
	regMu.RUnlock()
	if ok {
		return d, true
	}
	base, preset, found := strings.Cut(name, "/")
	if !found {
		return nil, false
	}
	regMu.RLock()
	d, ok = drivers[strings.ToLower(base)]
	regMu.RUnlock()
	if !ok {
		return nil, false
	}
	fam, ok := d.(FamilyDriver)
	if !ok {
		return nil, false
	}
	for _, inst := range fam.Instances() {
		if strings.EqualFold(inst.Name, preset) {
			return instanceDriver{fam: fam, inst: inst}, true
		}
	}
	return nil, false
}

// Names returns the canonical names of all registered drivers, sorted.
// Family presets are not included; see Instances.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return slices.Clone(canonical)
}

// Instances returns every buildable registered instance name, sorted:
// each driver's canonical name, plus "<name>/<preset>" for every
// preset of a family driver. This is the enumeration protocol-family
// sweeps iterate.
func Instances() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(canonical))
	for _, name := range canonical {
		out = append(out, name)
		if fam, ok := drivers[strings.ToLower(name)].(FamilyDriver); ok {
			for _, inst := range fam.Instances() {
				out = append(out, name+"/"+inst.Name)
			}
		}
	}
	slices.Sort(out)
	return out
}

// instanceDriver adapts one family preset to the ProtocolDriver
// surface. The preset-Params overlay happens in core.Build (which
// recognizes the type) before the WorldBuilder is constructed, so the
// merged bag is visible both to Build's cfg argument and to the
// builder's param getters; Build here only delegates.
type instanceDriver struct {
	fam  FamilyDriver
	inst Instance
}

// Name implements ProtocolDriver; the canonical instance name.
func (d instanceDriver) Name() string { return d.fam.Name() + "/" + d.inst.Name }

// Aliases implements ProtocolDriver; instances have none of their own.
func (d instanceDriver) Aliases() []string { return nil }

// Build implements ProtocolDriver.
func (d instanceDriver) Build(cfg Config, b *WorldBuilder) error {
	return d.fam.Build(cfg, b)
}

// mergedParams overlays the preset's knobs over the caller's (preset
// wins); the result never aliases the registered preset's map.
func (d instanceDriver) mergedParams(p Params) Params { return p.Merge(d.inst.Params) }
