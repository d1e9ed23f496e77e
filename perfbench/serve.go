package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"time"

	"openmxsim/internal/cliflag"
	"openmxsim/internal/serve"
	"openmxsim/internal/sweep"
)

// serveWorkload drives an in-process omxserve on a loopback listener with
// one client in a closed loop: submit POST /v1/sweep, read
// /v1/jobs/{id}/stream to its end marker, then GET the result. One client
// keeps cache hits from queueing behind simulations on the same cores.
//
// The traffic is a seeded interleaving of distinct ping-pong grids, which
// miss the cache, and replays of grids the pass already ran, which hit it.
// Misses load the sweep worker pool, per-point cluster build and teardown,
// JSON encoding and the cache's checksummed, fsync'd Put; half of every
// grid's points run under 1% loss, through the chaos layer and the
// retransmit path. Hits load the cache's verified Get, payload decoding and
// NDJSON streaming, and bypass the simulator. Every pass starts a fresh
// server on an empty cache: the server keeps every job it answered, and a
// growing job table would slow later passes through the garbage collector.
var serveWorkload = &workload{name: "serve", open: openServe}

const (
	serveGridCount = 16  // distinct grids per pass, each a miss
	hitsPerGrid    = 100 // replays per pass, on average per grid, each a hit
	// serveWorkers is the server's sweep pool size. With one worker the
	// simulation in a pass runs on one core at a time, like nas and
	// incast, so the host speed the single-threaded calibration job
	// measures is the speed the pass ran at. With a worker per core, a
	// pass took up to 45% longer whenever other work held the second
	// core, at the same CPU time and calibration speed.
	serveWorkers = 1
)

// tmpRoot is where the serve workload creates its cache directories.
var tmpRoot = os.TempDir()

type grid struct {
	name   string
	spec   cliflag.GridSpec
	body   []byte
	points int
}

// serveGrids draws serveGridCount+1 distinct grids from the seed; the
// last is the warm-up job. Every grid has the same shape (one
// strategy, two delays, a small, a medium and a 64 KiB size, loss 0 and
// 1%), so its cost varies little with the seed.
func serveGrids(seed uint64) []grid {
	rng := rand.New(rand.NewPCG(seed, 0x5e77e))
	strategies := []string{"disabled", "timeout", "openmx", "stream"}
	small := []int{0, 1, 32, 64, 128, 256}
	medium := []int{1024, 2048, 4096, 8192}
	seen := map[string]bool{}
	var gs []grid
	for len(gs) <= serveGridCount {
		d1 := 5 * (1 + rng.IntN(30))
		d2 := d1 + 5*(1+rng.IntN(10))
		spec := cliflag.GridSpec{
			Strategies: strategies[len(gs)%len(strategies)],
			Delays:     fmt.Sprintf("%d,%d", d1, d2),
			Sizes:      fmt.Sprintf("%d,%d,%d", small[rng.IntN(len(small))], medium[rng.IntN(len(medium))], 64<<10),
			Drop:       "0,0.01",
			Seeds:      strconv.FormatUint(seed, 10),
			Iters:      100,
		}
		body, err := json.Marshal(spec)
		if err != nil {
			panic(err) // a GridSpec always marshals
		}
		sg, err := spec.Grid()
		if err != nil {
			panic(err) // the axes above are always well formed
		}
		if seen[string(body)] {
			continue
		}
		seen[string(body)] = true
		gs = append(gs, grid{name: fmt.Sprintf("g%02d", len(gs)), spec: spec, body: body, points: sg.Size()})
	}
	return gs
}

// server is an in-process omxserve with a fresh cache and its client.
type server struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func startServer() (*server, error) {
	dir, err := os.MkdirTemp(tmpRoot, "serve-cache-")
	if err != nil {
		return nil, err
	}
	cache, err := serve.OpenCache(dir, serve.ResultsVersion)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		dir:    dir,
		srv:    serve.New(serve.Config{Cache: cache, Workers: serveWorkers, Par: 1}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serving goroutine, drains the
// job executors and removes the cache directory.
func (s *server) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Drain(30*time.Second), os.RemoveAll(s.dir))
}

// streamEvent is the part of a /stream line the client checks.
type streamEvent struct {
	Type   string `json:"type"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// job runs one submission to completion and returns the result payload
// and whether the cache answered it.
func (s *server) job(g grid) (payload []byte, cached bool, err error) {
	resp, err := s.client.Post(s.base+"/v1/sweep", "application/json", bytes.NewReader(g.body))
	if err != nil {
		return nil, false, err
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, false, fmt.Errorf("submit %s: status %d", g.name, resp.StatusCode)
	}
	if err != nil {
		return nil, false, fmt.Errorf("submit %s: %w", g.name, err)
	}

	resp, err = s.client.Get(s.base + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		return nil, false, err
	}
	var points int
	var end streamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return nil, false, fmt.Errorf("stream %s: %w", g.name, err)
		}
		if ev.Type == "point" {
			points++
		} else {
			end = ev
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return nil, false, fmt.Errorf("stream %s: %w", g.name, err)
	}
	if end.Type != "end" || end.State != string(serve.JobDone) {
		return nil, false, fmt.Errorf("job %s ended %q %q: %s", g.name, end.Type, end.State, end.Error)
	}

	resp, err = s.client.Get(s.base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return nil, false, err
	}
	payload, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("result %s: status %d", g.name, resp.StatusCode)
	}
	if points != g.points {
		return nil, false, fmt.Errorf("stream %s: %d points, want %d", g.name, points, g.points)
	}
	return payload, end.Cached, nil
}

func digest(payload []byte) string {
	return fmt.Sprintf("sha256=%x", sha256.Sum256(payload))
}

type serveInstance struct {
	srv   *server
	grids []grid
	// order lists the pass's jobs by grid index; a grid's first job
	// misses and its later ones hit.
	order []int
}

// openServe starts a server on an empty cache, runs one warm-up job on a
// grid outside the pass, and draws the pass's job order from the seed.
func openServe(seed uint64) (instance, error) {
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	gs := serveGrids(seed)
	if _, _, err := srv.job(gs[serveGridCount]); err != nil {
		return nil, errors.Join(err, srv.close())
	}
	return &serveInstance{srv: srv, grids: gs[:serveGridCount], order: serveOrder(seed)}, nil
}

// serveOrder shuffles serveGridCount misses and serveGridCount*hitsPerGrid
// hits; each hit replays a grid chosen among those already run, and the
// first job is always a miss.
func serveOrder(seed uint64) []int {
	rng := rand.New(rand.NewPCG(seed, 0x417))
	isMiss := make([]bool, serveGridCount*(1+hitsPerGrid))
	for i := 0; i < serveGridCount; i++ {
		isMiss[i] = true
	}
	rng.Shuffle(len(isMiss), func(i, j int) { isMiss[i], isMiss[j] = isMiss[j], isMiss[i] })
	for i, m := range isMiss {
		if m {
			isMiss[0], isMiss[i] = true, isMiss[0]
			break
		}
	}
	order := make([]int, len(isMiss))
	ran := 0
	for i, m := range isMiss {
		if m {
			order[i] = ran
			ran++
		} else {
			order[i] = rng.IntN(ran)
		}
	}
	return order
}

func (n *serveInstance) pass(m *meter, tr *tracer) error {
	payloads := make([][]byte, len(n.grids))
	for _, i := range n.order {
		g := n.grids[i]
		miss := payloads[i] == nil
		name := "serve.hit"
		if miss {
			name = "serve.miss"
		}
		sp := tr.begin(name)
		payload, cached, err := n.srv.job(g)
		tr.end(sp)
		switch {
		case err != nil:
		case miss && cached:
			err = fmt.Errorf("%s: first run answered from the cache", g.name)
		case !miss && !cached:
			err = fmt.Errorf("%s: replay missed the cache", g.name)
		case !miss && !bytes.Equal(payload, payloads[i]):
			err = fmt.Errorf("%s: hit payload differs from its miss", g.name)
		}
		m.done(g.name, digest(payload), err)
		if !miss || err != nil {
			continue
		}
		payloads[i] = payload
		tr.later(func() error { return addSweepCounts(tr, payload) })
	}
	return nil
}

// addSweepCounts adds the simulated counts in a sweep result payload.
func addSweepCounts(tr *tracer, payload []byte) error {
	var rs []sweep.Result
	if err := json.Unmarshal(payload, &rs); err != nil {
		return err
	}
	for _, r := range rs {
		tr.add("omx.retransmits", float64(r.Retransmits))
		tr.add("omx.giveups", float64(r.GiveUps))
	}
	return nil
}

// probe runs each grid's sweep directly, at the server's worker count
// and at one worker per core, and takes the cache's Put and Get on its
// key and payload, in a cache of its own.
func (n *serveInstance) probe(tr *tracer) error {
	dir, err := os.MkdirTemp(tmpRoot, "probe-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := serve.OpenCache(dir, serve.ResultsVersion)
	if err != nil {
		return err
	}
	perCore := runtime.GOMAXPROCS(0)
	for _, g := range n.grids {
		sg, err := g.spec.Grid()
		if err != nil {
			return err
		}
		key, err := cache.Key("sweep", sg.Canonical())
		if err != nil {
			return err
		}
		sg.Par = 1
		var payload []byte
		for i, w := range []int{serveWorkers, perCore} {
			name := "sweep.run"
			if i == 1 {
				name = "sweep.run_per_core"
			}
			sp := tr.begin(name)
			rs, err := sweep.RunContext(context.Background(), sg, w, nil)
			tr.end(sp)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := rs.WriteJSON(&buf); err != nil {
				return err
			}
			if payload != nil && !bytes.Equal(payload, buf.Bytes()) {
				return fmt.Errorf("%s: sweep payload depends on the worker count", g.name)
			}
			payload = buf.Bytes()
		}
		sp := tr.begin("cache.put")
		err = cache.Put(key, payload)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("cache.get")
		got, ok := cache.Get(key)
		tr.end(sp)
		if !ok || !bytes.Equal(got, payload) {
			return fmt.Errorf("%s: cache Get did not return the payload Put stored", g.name)
		}
		tr.add("serve.payload_bytes", float64(len(payload)))
		tr.add("serve.payloads", 1)
	}
	return nil
}

func (n *serveInstance) close() error { return n.srv.close() }
