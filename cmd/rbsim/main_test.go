package main

import (
	"errors"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestProtocolListGolden pins the exact `rbsim -proto list` output:
// the sorted driver registry with sorted aliases, and each family's
// instances indented beneath it. A new registration or preset (or a
// renamed driver) must update this string deliberately.
func TestProtocolListGolden(t *testing.T) {
	const want = "Epidemic               aliases: epidemicrb, flood\n" +
		"  Epidemic/r2\n" +
		"  Epidemic/r3\n" +
		"GossipRB               aliases: gossip\n" +
		"  GossipRB/f2p0.5\n" +
		"  GossipRB/f3p0.7\n" +
		"  GossipRB/f4p0.9\n" +
		"MultiPathRB            aliases: mp, multipath\n" +
		"  MultiPathRB/t1\n" +
		"  MultiPathRB/t2\n" +
		"NeighborWatchRB        aliases: neighborwatch, nw\n" +
		"  NeighborWatchRB/k3\n" +
		"  NeighborWatchRB/k4\n" +
		"NeighborWatchRB-2vote  aliases: 2vote, neighborwatch2, nw2\n" +
		"OneHopRB               aliases: 1hop, onehop\n"
	if got := protocolList(); got != want {
		t.Fatalf("protocol list drifted:\ngot:\n%swant:\n%s", got, want)
	}
}

func TestParseBits(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		err  bool
	}{
		{"0b1011", 0b1011, false},
		{"0b0", 0, false},
		{"13", 13, false},
		{"0x1F", 0x1F, false},
		{"0b2", 0, true},
		{"zz", 0, true},
		{"", 0, true},
	}
	for _, tc := range cases {
		got, err := parseBits(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("parseBits(%q) err = %v, want err=%v", tc.in, err, tc.err)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("parseBits(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestCheckMsgLen(t *testing.T) {
	cases := []struct {
		n   int
		err bool
	}{
		{-1, true},
		{0, true},
		{1, false},
		{4, false},
		{64, false},
		{65, true},
	}
	for _, tc := range cases {
		if err := checkMsgLen(tc.n); (err != nil) != tc.err {
			t.Errorf("checkMsgLen(%d) err = %v, want err=%v", tc.n, err, tc.err)
		}
	}
}

// TestMain runs the test binary as rbsim itself when RBSIM_MAIN is
// set, so tests can check main's exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("RBSIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadNodesExit2 runs rbsim with -nodes 0 and -nodes -5 on the
// default random map: each must exit 2 with a one-line error, as a bad
// -msglen does, instead of panicking while building the map. A -grid
// map takes no -nodes at all, so -grid 3 -nodes 0 exits 2 as well.
func TestBadNodesExit2(t *testing.T) {
	for _, n := range []string{"0", "-5"} {
		_, stderr, err := runRbsim("-nodes", n)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-nodes %s: exit %v, want status 2", n, err)
		}
		if want := "-nodes " + n + " out of range; want at least 1\n"; stderr != want {
			t.Errorf("-nodes %s: stderr %q, want %q", n, stderr, want)
		}
	}
	_, stderr, err := runRbsim("-grid", "3", "-nodes", "0")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("-grid 3 -nodes 0: exit %v, want status 2", err)
	}
	if want := "-nodes does not apply to a -grid map\n"; stderr != want {
		t.Errorf("-grid 3 -nodes 0: stderr %q, want %q", stderr, want)
	}
}

// TestMapFlagsExit2 runs rbsim with a deployment flag the chosen map
// ignores: each exits 2 with one line naming the flag. A clustered map
// takes all of them.
func TestMapFlagsExit2(t *testing.T) {
	grid := []string{"-grid", "5", "-range", "2"}
	for _, c := range []struct {
		args   []string
		stderr string
	}{
		{append(slices.Clone(grid), "-nodes", "77"), "-nodes does not apply to a -grid map\n"},
		{append(slices.Clone(grid), "-side", "3"), "-side does not apply to a -grid map\n"},
		{append(slices.Clone(grid), "-clusters", "3"), "-clusters does not apply to a -grid map\n"},
		{append(slices.Clone(grid), "-sigma", "9"), "-sigma does not apply to a -grid map\n"},
		{[]string{"-nodes", "60", "-side", "10", "-range", "3", "-sigma", "0.5"}, "-sigma needs -clusters\n"},
	} {
		_, stderr, err := runRbsim(c.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2", c.args, err)
		}
		if stderr != c.stderr {
			t.Errorf("%v: stderr %q, want %q", c.args, stderr, c.stderr)
		}
	}
	args := []string{"-nodes", "60", "-side", "10", "-range", "3", "-clusters", "3", "-sigma", "1.5", "-maxrounds", "20000"}
	if stdout, stderr, err := runRbsim(args...); err != nil || !strings.Contains(stdout, "correct:") {
		t.Errorf("%v: %v: %s%s", args, err, stdout, stderr)
	}
}

// runRbsim runs rbsim with args through TestMain and returns its standard
// output and standard error.
func runRbsim(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RBSIM_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestNonFiniteGeometryExit1 runs rbsim with an infinite or NaN range
// and with an infinite map side: each must fail the deployment check
// with exit status 1 and a one-line error, not panic in the spatial
// index.
func TestNonFiniteGeometryExit1(t *testing.T) {
	for _, args := range [][]string{
		{"-proto", "mp", "-t", "1", "-nodes", "30", "-side", "10", "-range", "Inf"},
		{"-proto", "gossip", "-nodes", "30", "-side", "10", "-range", "NaN"},
		{"-proto", "epidemic", "-nodes", "30", "-side", "Inf"},
	} {
		_, stderr, err := runRbsim(args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: exit %v, want status 1", args, err)
		}
		if strings.Contains(stderr, "panic:") || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "topo: ") {
			t.Errorf("%v: stderr %q, want one line from the deployment check", args, stderr)
		}
	}
}

// TestMixFlag runs rbsim's one adversary spelling, -mix: a valid label
// places liars that transmit, a label the grammar rejects (percentages
// summing above 100 included) exits 2 with a one-line error, and the
// per-kind fraction flags are gone.
func TestMixFlag(t *testing.T) {
	stdout, stderr, err := runRbsim("-grid", "9", "-range", "2", "-mix", "liar5")
	if err != nil {
		t.Fatalf("-mix liar5: %v: %s", err, stderr)
	}
	byz := -1
	for _, line := range strings.Split(stdout, "\n") {
		if v, ok := strings.CutPrefix(line, "byzantine tx:"); ok {
			byz, _ = strconv.Atoi(strings.TrimSpace(v))
		}
	}
	if byz <= 0 {
		t.Errorf("-mix liar5: byzantine tx %d, want > 0; output:\n%s", byz, stdout)
	}
	for _, args := range [][]string{
		{"-mix", "jam10b-3"},
		{"-mix", "liar150"},
		{"-mix", "liar60+jam60"},
		{"-liars", "0.05"},
	} {
		_, stderr, err := runRbsim(append([]string{"-grid", "9", "-range", "2"}, args...)...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2", args, err)
		}
		if args[0] == "-liars" {
			if !strings.HasPrefix(stderr, "flag provided but not defined: -liars\n") {
				t.Errorf("%v: stderr %q, want the undefined-flag error", args, stderr)
			}
		} else if strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "mix \""+args[1]+"\": ") {
			t.Errorf("%v: stderr %q, want one line from the mix grammar", args, stderr)
		}
	}
}

// TestParamFlag runs rbsim's -param front door: a value that is not a
// number exits 2 at flag parse, with a first line naming the knob
// (the flag package's usage text follows, as for any bad flag); a
// number the driver cannot take exits 1 at Build; a knob the protocol
// does not read, misspelled or another protocol's, exits 2 naming it;
// a knob the chosen family preset pins exits 2 naming the preset; and
// any spelling ParseParam takes runs.
func TestParamFlag(t *testing.T) {
	gossip := []string{"-proto", "gossip", "-grid", "5", "-range", "1.5"}
	mp := []string{"-nodes", "200", "-side", "11", "-range", "3"}
	for _, c := range []struct {
		base          []string
		param, stderr string
		code          int
	}{
		{gossip, "x=true", `invalid value "x=true" for flag -param: param x: want a number, got "true"` + "\n", 2},
		{gossip, "gossip.fanout=hi", `invalid value "gossip.fanout=hi" for flag -param: param gossip.fanout: want a number, got "hi"` + "\n", 2},
		{gossip, "gossip.fanout=2.5", "core: building GossipRB: param gossip.fanout: want an int, got 2.5\n", 1},
		{gossip, "gossip.fanout=0x2", "", 0},
		{gossip, "gosip.fanout=1", "-param gosip.fanout: GossipRB reads no such knob\n", 2},
		{gossip, "multipath.t=2", "-param multipath.t: GossipRB reads no such knob\n", 2},
		{append([]string{"-proto", "MultiPathRB/t1"}, mp...), "multipath.t=2", "-param multipath.t: MultiPathRB/t1 pins it to 1\n", 2},
		{append([]string{"-proto", "mp"}, mp...), "multipath.t=2", "", 0},
	} {
		args := append(slices.Clone(c.base), "-param", c.param)
		stdout, stderr, err := runRbsim(args...)
		code := 0
		if err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("%v: %v", args, err)
			}
			code = exit.ExitCode()
		}
		if code != c.code {
			t.Errorf("%v: exit status %d, want %d; stderr %q", args, code, c.code, stderr)
		}
		if c.stderr == "" && stderr != "" || !strings.HasPrefix(stderr, c.stderr) {
			t.Errorf("%v: stderr %q, want first line %q", args, stderr, c.stderr)
		}
		if c.code == 0 && !strings.Contains(stdout, "correct:") {
			t.Errorf("%v: no outcome printed:\n%s", args, stdout)
		}
	}
}

// TestMsgZeroHonoured runs rbsim with -msg 0 and with the default
// pattern 0b1011: an all-zero message is broadcast as given, not
// replaced by the default, so the two transmission traces differ.
func TestMsgZeroHonoured(t *testing.T) {
	trace := func(msg string) string {
		stdout, stderr, err := runRbsim("-proto", "onehop", "-grid", "3", "-range", "5", "-msglen", "4", "-trace", "200", "-msg", msg)
		if err != nil {
			t.Fatalf("-msg %s: %v: %s", msg, err, stderr)
		}
		if !strings.Contains(stdout, "correct:         8 (100.0% of completed)") {
			t.Errorf("-msg %s: not delivered correctly:\n%s", msg, stdout)
		}
		return stderr
	}
	if zero, def := trace("0"), trace("0b1011"); zero == def {
		t.Fatalf("-msg 0 and -msg 0b1011 printed the same trace:\n%s", zero)
	}
}
