// Command rbsim runs a single authenticated-broadcast simulation and
// prints its outcome: completion percentage, correctness, rounds, and
// broadcast counts — the paper's four measurements.
//
// Protocols are addressed by driver registry name or alias; `rbsim
// -proto list` enumerates everything registered, including protocols
// wired in outside core (e.g. GossipRB). Driver knobs are drivable
// without a rebuild through repeated `-param name=value` flags into
// the core.Params bag. Every knob is a number: a value that is not one
// exits 2 at flag parse, one the driver cannot take (a fractional
// count, an out-of-range value) exits 1 at Build, a knob the chosen
// family preset pins exits 2 before building (the preset would win),
// and a knob the protocol does not read (a misspelling, another
// protocol's knob) exits 2 once the world is built.
//
// Examples:
//
//	rbsim -proto list
//	rbsim -proto nw -nodes 600 -side 20 -range 4 -mix liar5
//	rbsim -proto mp -t 3 -grid 9 -range 2 -msg 0b1011 -msglen 4
//	rbsim -proto gossip -nodes 500 -side 20 -range 3
//	rbsim -proto gossip -param gossip.fanout=5 -param gossip.prob=0.9
//	rbsim -proto nw -grid 9 -range 2 -mix spoof10b16
//	rbsim -proto nw -grid 9 -range 2 -mix liar10+jam10b16
//	rbsim -proto onehop -grid 4 -range 5 -transport udp
//	rbsim -proto onehop -grid 3 -range 5 -transport udp -fault drop10+dup5+delay20 -retrytimeout 5ms -retryjitter 0.2
//	rbsim -proto nw -grid 9 -range 2 -mix churn10o8
//
// The map is a -grid, a -clusters map or, by default, a uniform one,
// and a deployment flag the chosen map would ignore exits 2: a -grid
// map takes none of -nodes, -side, -clusters and -sigma, and -sigma
// needs -clusters.
//
// -mix is the one way to place adversaries: a compact label in
// experiment.ParseMix's grammar, percentages of devices per kind joined
// by '+' (liar5+crash5+jam7.5), jam and spoof with an optional
// per-device broadcast budget (jam10b16) and crash-recover churn with
// an outage budget (churn10o8). A label the grammar rejects, such as a
// percentage above 100 or a non-positive budget, exits 2.
//
// -transport udp routes every device's round callbacks over real
// loopback UDP sockets (one endpoint per device) through the
// sim.RoundDriver seam; results are bit-identical to the in-process
// transport for the same seed. Under udp, -fault injects a
// deterministic fault plan (faultnet grammar, e.g.
// drop10+dup5+delay20) and the -retry* flags tune the retry/backoff
// policy; when a device exhausts its retry budget the coordinator
// declares it crashed, the run degrades gracefully, and rbsim reports
// the casualties and exits nonzero. -tracerx adds kind=rx observation
// lines to the -trace log.
package main

import (
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"authradio/internal/core"
	"authradio/internal/experiment"
	"authradio/internal/faultnet"
	netmedium "authradio/internal/medium/net"
	"authradio/internal/metrics"
	"authradio/internal/proto/multipath"
	"authradio/internal/trace"

	_ "authradio/internal/protocols"

	// OneHopRB registers here (not in internal/protocols): it is
	// single-hop by construction and would otherwise join every
	// registry-enumerating experiment sweep.
	_ "authradio/internal/proto/onehop/driver"
)

// defaultMaxRounds is the round cap shared by the -maxrounds flag
// default and runScenario's fallback for an explicit zero.
const defaultMaxRounds = 5_000_000

func main() {
	var (
		proto    = flag.String("proto", "nw", "protocol registry name or alias; 'list' enumerates all drivers")
		nodes    = flag.Int("nodes", 600, "device count (uniform/clustered)")
		side     = flag.Float64("side", 20, "map side length")
		grid     = flag.Int("grid", 0, "use a WxW analytical grid instead of a random map")
		rng      = flag.Float64("range", 4, "broadcast range R")
		clusters = flag.Int("clusters", 0, "deploy in clusters (0 = uniform)")
		sigma    = flag.Float64("sigma", 2.5, "cluster spread")
		msgStr   = flag.String("msg", "0b1011", "message bits (0b... or decimal)")
		msgLen   = flag.Int("msglen", 4, "message length in bits (1..64)")
		t        = flag.Int("t", 3, "MultiPathRB tolerance: sets the multipath.t knob (-param multipath.t wins)")
		mix      = flag.String("mix", "", "adversary mix label, percentages of devices (e.g. liar5, jam10b32, liar5+crash5+jam7.5, spoof10b16, churn10o8); empty = none")
		seed     = flag.Uint64("seed", 1, "random seed (>= 1)")
		rep      = flag.Int("rep", 0, "repetition index (varies deployment/roles)")
		maxR     = flag.Uint64("maxrounds", defaultMaxRounds, "round cap")
		stats    = flag.Bool("stats", false, "print channel statistics (tx by kind, utilisation)")
		traceN   = flag.Int("trace", 0, "log the first N transmissions to stderr")
		traceRx  = flag.Bool("tracerx", false, "also log listener observations (kind=rx) within the -trace budget")
		tport    = flag.String("transport", "sim", "round-boundary transport: sim (in-process) or udp (loopback sockets, one endpoint per device)")

		retryTimeout  = flag.Duration("retrytimeout", netmedium.DefaultTimeout, "udp: initial per-request timeout before a retransmit")
		retryBackoff  = flag.Float64("retrybackoff", netmedium.DefaultBackoff, "udp: timeout multiplier per retry (>= 1)")
		retryJitter   = flag.Float64("retryjitter", 0, "udp: seeded jitter fraction applied to each timeout (0..1)")
		retries       = flag.Int("retries", netmedium.DefaultRetries, "udp: retransmits per request before the device is declared crashed")
		retryDeadline = flag.Duration("retrydeadline", netmedium.DefaultDeadline, "udp: hard wall-clock cap per request across all retries")
		fault         = flag.String("fault", "", "udp: deterministic fault plan (e.g. drop10+dup5+delay20, or none)")
		faultSeed     = flag.Uint64("faultseed", 0, "udp: fault plan seed (0 = derive from -seed)")
	)
	var params core.ParamFlag
	flag.Var(&params, "param", "driver knob name=number (repeatable, e.g. -param gossip.fanout=3)")
	flag.Parse()
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if strings.EqualFold(*proto, "list") {
		fmt.Print(protocolList())
		return
	}
	if *seed == 0 {
		fmt.Fprintln(os.Stderr, "rbsim: -seed 0 is not a valid seed (valid seeds are 1..2^64-1; the experiment library aliases 0 to 1, so 0 cannot name a distinct stream)")
		os.Exit(2)
	}
	drv, ok := core.Lookup(*proto)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown protocol %q; try -proto list\n", *proto)
		os.Exit(2)
	}
	if err := checkKnobsPinned(drv.Name(), params.Params); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	bits, err := parseBits(*msgStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := checkMsgLen(*msgLen); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := checkNodes(*nodes, *grid); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := checkMapFlags(set, *grid, *clusters); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var adv experiment.AdversaryMix
	if *mix != "" {
		m, err := experiment.ParseMix(*mix)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		adv = m
	}

	s := experiment.Scenario{
		Name:         "rbsim",
		ProtocolName: drv.Name(),
		Deploy:       experiment.Uniform,
		Nodes:        *nodes,
		MapSide:      *side,
		Range:        *rng,
		MsgBits:      bits,
		MsgLen:       *msgLen,
		AdversaryMix: adv,
		Params:       core.Params{multipath.ParamT: float64(*t)}.Merge(params.Params),
		Seed:         *seed,
		MaxRounds:    *maxR,
	}
	if *grid > 0 {
		s.Deploy = experiment.GridDeploy
		s.GridW = *grid
	} else if *clusters > 0 {
		s.Deploy = experiment.Clustered
		s.Clusters = *clusters
		s.Sigma = *sigma
	}

	if *traceRx && *traceN == 0 {
		fmt.Fprintln(os.Stderr, "-tracerx needs a -trace budget (e.g. -trace 200 -tracerx)")
		os.Exit(2)
	}
	if *tport != "sim" && *tport != "udp" {
		fmt.Fprintf(os.Stderr, "unknown transport %q; want sim or udp\n", *tport)
		os.Exit(2)
	}
	if *tport != "udp" {
		for _, name := range []string{"fault", "faultseed", "retries", "retrybackoff", "retrydeadline", "retryjitter", "retrytimeout"} {
			if set[name] {
				fmt.Fprintf(os.Stderr, "-%s needs -transport udp\n", name)
				os.Exit(2)
			}
		}
	}
	var transport *netmedium.Transport
	if *tport == "udp" {
		plan, err := faultnet.Parse(*fault)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if plan != nil {
			plan.Seed = *faultSeed
			if plan.Seed == 0 {
				plan.Seed = *seed
			}
		}
		transport = &netmedium.Transport{
			Retry: netmedium.RetryPolicy{
				Timeout:  *retryTimeout,
				Backoff:  *retryBackoff,
				Jitter:   *retryJitter,
				Retries:  *retries,
				Deadline: *retryDeadline,
				Seed:     *seed,
			},
			Faults: plan,
		}
	}

	res, coll, closeErr := runScenario(s, params.Params, *rep, *stats, *traceN, *traceRx, transport)
	fmt.Printf("protocol:        %s\n", drv.Name())
	fmt.Printf("honest nodes:    %d\n", res.Honest)
	fmt.Printf("completed:       %d (%.1f%%)\n", res.Complete, 100*res.CompletionFrac())
	fmt.Printf("correct:         %d (%.1f%% of completed)\n", res.Correct, 100*res.CorrectFrac())
	fmt.Printf("end round:       %d\n", res.EndRound)
	fmt.Printf("last completion: %d\n", res.LastCompletion)
	fmt.Printf("honest tx:       %d\n", res.HonestTx)
	fmt.Printf("byzantine tx:    %d\n", res.ByzTx)
	if res.Components > 1 {
		fmt.Printf("components:      %d (source's: %d devices, %.1f%% delivery within it)\n",
			res.Components, res.SrcCompSize, 100*res.SrcDeliveryFrac())
	}
	if !res.AllComplete {
		fmt.Println("note: not all honest nodes completed (disconnected overlay, adversary, or round cap)")
	}
	if coll != nil {
		fmt.Printf("channel:         %s\n", coll)
	}
	if closeErr != nil {
		var crash *netmedium.CrashError
		if errors.As(closeErr, &crash) {
			fmt.Fprintf(os.Stderr, "crashed devices (retry budget exhausted): %v\n", crash.Devices)
		}
		fmt.Fprintln(os.Stderr, "closing transport:", closeErr)
		os.Exit(1)
	}
}

// protocolList renders the driver registry, one line per protocol with
// its aliases, and one indented line per family instance — every
// printed name (and "<family>/<preset>" instance) is a valid -proto
// argument.
func protocolList() string {
	var b strings.Builder
	for _, name := range core.Names() {
		drv, _ := core.Lookup(name)
		aliases := slices.Clone(drv.Aliases())
		slices.Sort(aliases)
		fmt.Fprintf(&b, "%-22s", name)
		if len(aliases) > 0 {
			fmt.Fprintf(&b, " aliases: %s", strings.Join(aliases, ", "))
		}
		b.WriteByte('\n')
		if fam, ok := drv.(core.FamilyDriver); ok {
			for _, inst := range fam.Instances() {
				fmt.Fprintf(&b, "  %s/%s\n", name, inst.Name)
			}
		}
	}
	return b.String()
}

// runScenario builds and runs the scenario like Scenario.Run, with
// engine-level parallelism enabled (a single scenario run has no
// repetition fan-out to feed, and worker counts never change results)
// and optional channel statistics, tracing and a non-default transport
// attached through build options. It exits 2 before running if the
// built protocol did not read one of knobs (the -param flags). The udp
// transport (transport != nil) hosts every device behind its own
// loopback socket and produces results bit-identical to sim for the
// same seed (pinned by internal/medium/net's tests). The returned close
// error is the transport teardown verdict — a *CrashError inside it
// names the devices the retry policy gave up on.
func runScenario(s experiment.Scenario, knobs core.Params, rep int, stats bool, traceN int, traceRx bool, transport *netmedium.Transport) (core.Result, *metrics.Collector, error) {
	opts := []core.Option{core.WithWorkers(runtime.GOMAXPROCS(0))}
	var coll *metrics.Collector
	if stats {
		coll = metrics.NewCollector()
		opts = append(opts, core.WithRoundHook(coll.Hook()))
	}
	var tl *trace.Logger
	if traceN > 0 {
		tl = &trace.Logger{W: os.Stderr, MaxLines: traceN}
		opts = append(opts, core.WithRoundHook(tl.Hook()))
		if traceRx {
			opts = append(opts, core.WithDeliverHook(tl.RxHook()))
		}
	}
	if transport != nil {
		opts = append(opts, core.WithTransport(*transport))
	}
	w, err := s.BuildWorld(rep, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := checkKnobsRead(w, knobs); err != nil {
		w.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if tl != nil {
		// The cycle is a product of the build; the hook only reads it
		// once rounds start.
		tl.Cycle = w.Cycle
	}
	maxRounds := s.MaxRounds
	if maxRounds == 0 {
		maxRounds = defaultMaxRounds
	}
	res := w.Run(maxRounds)
	return res, coll, w.Close()
}

// checkKnobsRead rejects a -param knob the world's driver did not read:
// it would leave the run unchanged without a word. The -t flag's
// multipath.t is not checked, since every run sets it.
func checkKnobsRead(w *core.World, knobs core.Params) error {
	for _, name := range slices.Sorted(maps.Keys(knobs)) {
		if !w.ParamRead(name) {
			return fmt.Errorf("-param %s: %s reads no such knob", name, w.DriverName)
		}
	}
	return nil
}

// checkKnobsPinned rejects a -param knob that the family preset named
// by instance ("<family>/<preset>") pins: Build merges the preset over
// the flags, so the flag would leave the run unchanged without a word.
// A name that is not a preset pins nothing.
func checkKnobsPinned(instance string, knobs core.Params) error {
	family, preset, ok := strings.Cut(instance, "/")
	if !ok {
		return nil
	}
	drv, _ := core.Lookup(family)
	fam, _ := drv.(core.FamilyDriver)
	if fam == nil {
		return nil
	}
	for _, inst := range fam.Instances() {
		if inst.Name != preset {
			continue
		}
		for _, name := range slices.Sorted(maps.Keys(knobs)) {
			if v, pinned := inst.Params[name]; pinned {
				return fmt.Errorf("-param %s: %s pins it to %v", name, instance, v)
			}
		}
	}
	return nil
}

// checkMsgLen rejects a -msglen the message codec cannot carry. Zero is
// rejected too: the scenario would silently read it as its 4-bit
// default.
func checkMsgLen(n int) error {
	if n < 1 || n > 64 {
		return fmt.Errorf("-msglen %d out of range; want 1..64", n)
	}
	return nil
}

// checkNodes rejects a -nodes count below 1 for the random maps, which
// would build an empty deployment (or none). A -grid map takes no
// -nodes (see checkMapFlags).
func checkNodes(nodes, grid int) error {
	if grid <= 0 && nodes < 1 {
		return fmt.Errorf("-nodes %d out of range; want at least 1", nodes)
	}
	return nil
}

// checkMapFlags rejects a deployment flag, set on the command line,
// that the chosen map ignores: it would leave the run unchanged without
// a word. A -grid map takes no -nodes, -side, -clusters or -sigma, and
// a uniform map no -sigma.
func checkMapFlags(set map[string]bool, grid, clusters int) error {
	if grid > 0 {
		for _, name := range []string{"nodes", "side", "clusters", "sigma"} {
			if set[name] {
				return fmt.Errorf("-%s does not apply to a -grid map", name)
			}
		}
	} else if set["sigma"] && clusters <= 0 {
		return errors.New("-sigma needs -clusters")
	}
	return nil
}

func parseBits(s string) (uint64, error) {
	if v, ok := strings.CutPrefix(s, "0b"); ok {
		return strconv.ParseUint(v, 2, 64)
	}
	return strconv.ParseUint(s, 0, 64)
}
