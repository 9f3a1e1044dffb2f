package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authradio/internal/xrand"
)

const (
	// warmClients is the closed loop's client count: each sends its next
	// request when the previous reply has been read.
	warmClients = 2
	// tablesEvery makes one warm request in five a GET /tables/matrix;
	// the rest POST /sweep one instance across the adversary ladder.
	tablesEvery = 5
	// minWarmRequests is the fewest warm requests a run makes, so the
	// p95 rests on at least fifty samples beyond it.
	minWarmRequests = 1000
)

// buildDir is where the benchmark keeps what it builds, inside the
// checkout it runs in.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildRbexp builds cmd/rbexp from the checkout at root into dir.
func buildRbexp(root, dir string) (string, error) {
	bin := filepath.Join(dir, "rbexp")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rbexp")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/rbexp: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running `rbexp serve` process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	stderr bytes.Buffer // read only after exited is closed
}

// freeAddr returns a loopback address with a port free at the time of
// the call.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer starts `rbexp serve` on cacheDir and waits until
// /healthz answers 200, returning the time that took.
func startServer(bin, cacheDir string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "serve", "-addr", addr, "-cache", cacheDir, "-workers", strconv.Itoa(engineWorkers))
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(engineWorkers))
	s.cmd.Stderr = &s.stderr
	s.cmd.SysProcAttr = serverProcAttr()
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting rbexp serve: %w", err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		if resp, err := hc.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			s.stop()
			return nil, 0, errors.New("rbexp serve did not become healthy within 30s")
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("rbexp serve exited during start-up: %s", s.stderr.String())
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// stop kills the server and waits until it has exited.
func (s *server) stop() {
	s.cmd.Process.Kill()
	<-s.exited
}

// statusMB reads one memory field of the server's /proc status, such
// as VmRSS (resident now) or VmHWM (peak resident), in MB.
func (s *server) statusMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// sampleRSS reads the server's resident set every 100ms until stop is
// closed, then sends the samples. The peak alone swings with the
// collector's timing; the median of the samples does not.
func (s *server) sampleRSS(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var xs []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := s.statusMB("VmRSS"); err == nil {
				xs = append(xs, v)
			}
			select {
			case <-stop:
				out <- xs
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// streamLine is one NDJSON line of a POST /sweep reply: a cell result,
// or the closing trailer.
type streamLine struct {
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`

	Done     bool `json:"done"`
	Cells    int  `json:"cells"`
	Executed int  `json:"executed"`
	Hits     int  `json:"hits"`
}

// parseSweep checks one POST /sweep reply: HTTP 200, one result line
// per cell followed by the trailer, and a trailer whose cell count is
// the executed plus the cached cells.
func parseSweep(status int, body []byte) ([]streamLine, streamLine, error) {
	var done streamLine
	if status != http.StatusOK {
		return nil, done, fmt.Errorf("POST /sweep: HTTP %d: %.200s", status, body)
	}
	var cells []streamLine
	for _, ln := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		var l streamLine
		if err := json.Unmarshal(ln, &l); err != nil {
			return nil, done, fmt.Errorf("POST /sweep: bad line %.100q: %w", ln, err)
		}
		if done.Done {
			return nil, done, errors.New("POST /sweep: line after the trailer")
		}
		if l.Done {
			done = l
		} else {
			cells = append(cells, l)
		}
	}
	switch {
	case !done.Done:
		return nil, done, errors.New("POST /sweep: no trailer")
	case len(cells) != done.Cells:
		return nil, done, fmt.Errorf("POST /sweep: %d result lines, trailer says %d cells", len(cells), done.Cells)
	case done.Cells != done.Executed+done.Hits:
		return nil, done, fmt.Errorf("POST /sweep: trailer cells %d != executed %d + hits %d", done.Cells, done.Executed, done.Hits)
	}
	return cells, done, nil
}

// checkWarmSweep checks a warm POST /sweep reply: nothing executed, and
// every result byte-equal to the cold computation of the same cell.
func checkWarmSweep(cells []streamLine, done streamLine, cold map[string]json.RawMessage) error {
	if done.Executed != 0 {
		return fmt.Errorf("warm POST /sweep executed %d cells", done.Executed)
	}
	for _, c := range cells {
		want, ok := cold[c.ID]
		if !ok {
			return fmt.Errorf("warm cell %s was not in the cold grid", c.ID)
		}
		if !bytes.Equal(want, c.Result) {
			return fmt.Errorf("warm cell %s result %s differs from cold %s", c.ID, c.Result, want)
		}
	}
	return nil
}

// checkTables checks a GET /tables/matrix reply against the expected
// document: served entirely from the cache and byte-equal.
func checkTables(status int, executed string, body, want []byte) error {
	switch {
	case status != http.StatusOK:
		return fmt.Errorf("GET /tables/matrix: HTTP %d: %.200s", status, body)
	case executed != "0":
		return fmt.Errorf("GET /tables/matrix executed %q cells on a warm cache", executed)
	case !bytes.Equal(body, want):
		return fmt.Errorf("GET /tables/matrix differs from the expected %d-byte document (%d bytes)", len(want), len(body))
	}
	return nil
}

// keyInstance returns the protocol instance of a canonical cell key
// (the inst= field of sweep.CellKey.String).
func keyInstance(key string) string {
	for _, f := range strings.Split(key, "|") {
		if v, ok := strings.CutPrefix(f, "inst="); ok {
			return strings.NewReplacer("%7C", "|", "%25", "%").Replace(v)
		}
	}
	return ""
}

// coldSeeds are the seeds whose matrix grid the cold phase computes and
// the warm phase then requests: the evaluation grid at seeds 1 and 2,
// whatever the run's seed, which draws the warm request sequence. The
// grid's amount of work depends on its seed (summed over the grid,
// seed 3 simulates 26% more rounds than seed 1), which would swamp the
// cold throughput. Seed 1's grid is the one matrix_golden.json pins.
func coldSeeds(toy bool) []uint64 {
	if toy {
		return []uint64{1}
	}
	return []uint64{1, 2}
}

// serveClient issues the benchmark's requests over at most warmClients
// connections.
type serveClient struct {
	hc   *http.Client
	base string
}

func newServeClient(base string) *serveClient {
	tr := &http.Transport{MaxConnsPerHost: warmClients, MaxIdleConnsPerHost: warmClients, DisableCompression: true}
	return &serveClient{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base}
}

// reply is one request's outcome and timings.
type reply struct {
	status   int
	executed string // X-Sweep-Executed
	body     []byte
	ttfb     time.Duration // until the headers arrived
	total    time.Duration // until the body was read
}

func (c *serveClient) do(method, path string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode, executed: resp.Header.Get("X-Sweep-Executed"), ttfb: time.Since(t0)}
	r.body, err = io.ReadAll(resp.Body)
	r.total = time.Since(t0)
	return r, err
}

func sweepBody(seed uint64, instances []string) []byte {
	b, _ := json.Marshal(struct {
		Exp       string   `json:"exp"`
		Seed      uint64   `json:"seed"`
		Instances []string `json:"instances,omitempty"`
	}{"matrix", seed, instances})
	return b
}

// coldGrid is what the cold phase learned: every cell's result, keyed
// by content address, and the grid's instances in order.
type coldGrid struct {
	results   map[string]json.RawMessage
	instances []string
	cells     int
	wall      time.Duration
}

// runCold computes the matrix grid of each seed on the fresh server,
// one request at a time.
func runCold(c *serveClient, seeds []uint64, rec *recorder) coldGrid {
	g := coldGrid{results: map[string]json.RawMessage{}}
	seen := map[string]bool{}
	t0 := time.Now()
	for _, seed := range seeds {
		r, err := c.do(http.MethodPost, "/sweep", sweepBody(seed, nil))
		if err != nil {
			rec.check(fmt.Errorf("cold POST /sweep seed %d: %w", seed, err))
			continue
		}
		cells, done, err := parseSweep(r.status, r.body)
		if err == nil && done.Executed != done.Cells {
			err = fmt.Errorf("cold POST /sweep on a fresh cache executed %d of %d cells", done.Executed, done.Cells)
		}
		rec.check(err)
		for _, l := range cells {
			g.results[l.ID] = l.Result
			if inst := keyInstance(l.Key); !seen[inst] {
				seen[inst] = true
				g.instances = append(g.instances, inst)
			}
		}
		g.cells += len(cells)
	}
	g.wall = time.Since(t0)
	return g
}

// warmSample is one warm request, kept in full for the span file.
type warmSample struct {
	Client  int    `json:"client"`
	Kind    string `json:"kind"`
	Seed    uint64 `json:"seed"`
	StartNS int64  `json:"start_ns"`
	TTFBNS  int64  `json:"ttfb_ns"`
	TotalNS int64  `json:"total_ns"`
	Bytes   int    `json:"bytes"`
	Hit     bool   `json:"hit"`
	err     error
}

// runWarm runs the closed loop: warmClients clients, each drawing its
// request sequence from the seed, until the deadline has passed and at
// least minReq requests were answered. Every GET /tables/matrix must
// equal the first reply for its grid seed, and seed 1's must equal
// golden.
func runWarm(c *serveClient, seed uint64, g coldGrid, seeds []uint64, golden []byte, deadline time.Time, minReq int) ([]warmSample, time.Duration) {
	var mu sync.Mutex // guards tables
	tables := map[uint64][]byte{1: golden}
	var sent atomic.Int64
	out := make([][]warmSample, warmClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < warmClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := xrand.Derive(seed, laneRequests, uint64(k)) //rbvet:allow lanelabel a benchmark input lane
			for sent.Add(1) <= int64(minReq) || time.Now().Before(deadline) {
				s := warmSample{Client: k, Seed: seeds[rng.Intn(len(seeds))], StartNS: int64(time.Since(t0))}
				var r reply
				var err error
				if rng.Intn(tablesEvery) == 0 || len(g.instances) == 0 {
					s.Kind = "tables"
					r, err = c.do(http.MethodGet, fmt.Sprintf("/tables/matrix?seed=%d", s.Seed), nil)
					if err == nil {
						mu.Lock()
						want, ok := tables[s.Seed]
						if !ok && r.status == http.StatusOK {
							tables[s.Seed], want = r.body, r.body
						}
						mu.Unlock()
						err = checkTables(r.status, r.executed, r.body, want)
						s.Hit = r.executed == "0"
					}
				} else {
					s.Kind = "sweep"
					inst := g.instances[rng.Intn(len(g.instances))]
					r, err = c.do(http.MethodPost, "/sweep", sweepBody(s.Seed, []string{inst}))
					if err == nil {
						var cells []streamLine
						var done streamLine
						cells, done, err = parseSweep(r.status, r.body)
						if err == nil {
							err = checkWarmSweep(cells, done, g.results)
						}
						s.Hit = done.Done && done.Executed == 0
					}
				}
				s.TTFBNS, s.TotalNS, s.Bytes, s.err = int64(r.ttfb), int64(r.total), len(r.body), err
				out[k] = append(out[k], s)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	var all []warmSample
	for _, o := range out {
		all = append(all, o...)
	}
	return all, wall
}

// runSweepServe measures the sweep service over real sockets: server
// start-up, a cold matrix sweep on a fresh cache, then a closed loop of
// warm requests. A traced run replays the cold grid in-process with the
// tracer on every cell (see replay.go) between the two phases.
func runSweepServe(cfg Config, rec *recorder) error {
	dir := buildDir(cfg.Root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	bin, err := buildRbexp(cfg.Root, dir)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(dir, "sweep-serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	seeds := coldSeeds(cfg.Toy)
	golden, err := os.ReadFile(filepath.Join(cfg.Root, "cmd", "rbexp", "testdata", "matrix_golden.json"))
	if err != nil {
		return err
	}

	var srv *server
	var setups []time.Duration
	err = repeatSetup(cfg, func() error {
		if srv != nil {
			srv.stop()
		}
		s, d, err := startServer(bin, filepath.Join(work, fmt.Sprintf("cache-%d", len(setups))))
		srv = s
		setups = append(setups, d)
		return err
	})
	if srv != nil {
		defer srv.stop()
	}
	if err != nil {
		return err
	}
	client := newServeClient(srv.base)
	defer client.hc.CloseIdleConnections()

	stopRSS := make(chan struct{})
	rssSamples := srv.sampleRSS(stopRSS)
	deadline := time.Now().Add(cfg.budget())
	cold := runCold(client, seeds, rec)
	cfg.logf("sweep-serve: cold: %d cells in %v", cold.cells, cold.wall.Round(time.Millisecond))
	var spans map[string]any
	if cfg.Trace {
		if spans, err = replaySweep(cfg, seeds, cold, filepath.Join(work, "replay-cache"), rec); err != nil {
			return err
		}
	}
	minReq := minWarmRequests
	if cfg.Toy {
		minReq = 100
	}
	warm, warmWall := runWarm(client, cfg.Seed, cold, seeds, golden, deadline, minReq)
	close(stopRSS)
	rss := <-rssSamples
	cfg.logf("sweep-serve: warm: %d requests in %v", len(warm), warmWall.Round(time.Millisecond))
	var total, ttfb, body, sweeps, tabless []float64
	hits, bytesSum := 0, 0
	for _, s := range warm {
		rec.check(s.err)
		ms := float64(s.TotalNS) / 1e6
		total = append(total, ms)
		ttfb = append(ttfb, float64(s.TTFBNS)/1e6)
		body = append(body, float64(s.TotalNS-s.TTFBNS)/1e6)
		if s.Kind == "tables" {
			tabless = append(tabless, ms)
		} else {
			sweeps = append(sweeps, ms)
		}
		if s.Hit {
			hits++
		}
		bytesSum += s.Bytes
	}
	if len(rss) == 0 {
		return errors.New("could not read the server's resident set from /proc")
	}
	peak, err := srv.statusMB("VmHWM")
	if err != nil {
		return err
	}

	if !cfg.Trace {
		rec.put(MetricSetup, Median(seconds(setups)), "s")
		rec.putOps(total, minReq)
		rec.put(MetricThroughput, float64(cold.cells)/cold.wall.Seconds(), "1/s")
		rec.put(MetricMem, Median(rss), "MB")
		return nil
	}
	rec.put("serve.ttfb_ms_p50", Median(ttfb), "ms")
	rec.put("serve.body_ms_p50", Median(body), "ms")
	rec.put("serve.bytes_per_req", float64(bytesSum)/float64(len(warm)), "B")
	rec.put("serve.sweep_p50_ms", Median(sweeps), "ms")
	rec.put("serve.tables_p50_ms", Median(tabless), "ms")
	rec.put("serve.warm_hit_frac", float64(hits)/float64(len(warm)), "ratio")
	rec.put("serve.warm_p999_ms", Percentile(total, TailPercentile(len(total))), "ms")
	rec.put("serve.req_per_s", float64(len(warm))/warmWall.Seconds(), "1/s")
	rec.put("serve.server_rss_mb", peak, "MB")
	spans["requests"] = warm
	rec.spans = spans
	return nil
}
