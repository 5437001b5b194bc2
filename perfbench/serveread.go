package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/ring"
	"locec/internal/router"
	"locec/internal/serve"
	"locec/internal/social"
)

// serve-read traffic. No traffic data exists for this system (the paper
// publishes none), so the mix is an assumption, recorded as such in
// README.md: single-edge lookups dominate, as the workload's definition
// asks. 1600 edge requests and 40 classify batches of 16 a second give
// GET /v1/edge 98% of the requests and 71% of the EdgeStore lookups.
// The offered load sits under the fleet's capacity on a 2-CPU host, so
// the fixed-rate latencies measure the read path rather than a queue;
// read_max_rps finds where the queue starts.
const (
	readShards    = 4
	edgeRate      = 1600 // GET /v1/edge per second
	classifyRate  = 40   // POST /v1/classify per second; half hot, half fresh
	classifyBatch = 16
	hotBatches    = 32 // assumed hot set; small enough to stay in every shard's LRU cache
	// tourSeconds bounds the fixed-rate loop of the read tour that the
	// traced runs of the other workloads make over their own artifact.
	tourSeconds = 2.0
	// edgeLimitMs is the edge p99 limit a ladder step must meet.
	edgeLimitMs = 20.0
	// The ladder's rates are ladderMin·ladderStep^k.
	ladderMin  = 500.0
	ladderStep = 1.05
	// probeSeconds is the shortest ladder step; saturateSeconds is the
	// back-to-back run that bounds the ladder search.
	probeSeconds    = 1.0
	saturateSeconds = 2
	// readSetupReps: each serve-read set-up trains an n=10000 artifact,
	// so it is repeated fewer times than the cheap training set-ups.
	readSetupReps = 2
)

// request kinds of the read and write loops.
const (
	kindEdge = iota
	kindClassify
	kindMutation
)

// discardLogger formats every log record as the servers do in production
// (JSON, info level) but writes nothing, so the run's output stays clean.
func discardLogger() *slog.Logger { return slog.New(slog.NewJSONHandler(io.Discard, nil)) }

// httpService is one handler on a loopback listener.
type httpService struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*httpService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpService{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the listener and waits for its serve loop to return.
func (s *httpService) close() {
	_ = s.srv.Close()
	<-s.done
}

// fleet is the sharded read path: four artifact-cut shards, each a
// serve.Server on its own loopback listener, behind a router over HTTP.
type fleet struct {
	shards     []*serve.Server
	shardHTTP  []*httpService
	rt         *router.Router
	routerHTTP *httpService
	rtClient   *http.Client
	shardBoot  []time.Duration
	coldstart  time.Duration
}

func (f *fleet) close() {
	if f.routerHTTP != nil {
		f.routerHTTP.close()
	}
	for _, h := range f.shardHTTP {
		if h != nil {
			h.close()
		}
	}
	for _, s := range f.shards {
		if s != nil {
			s.Close()
		}
	}
	if f.rtClient != nil {
		f.rtClient.CloseIdleConnections()
	}
}

// bootFleet cold-starts every shard from its artifact file concurrently,
// then the router, and returns once the router's /readyz answers 200 with
// every circuit closed.
func bootFleet(paths []string, tr *tracer, client *http.Client) (*fleet, error) {
	t0 := time.Now()
	f := &fleet{
		shards:    make([]*serve.Server, len(paths)),
		shardHTTP: make([]*httpService, len(paths)),
		shardBoot: make([]time.Duration, len(paths)),
	}
	errs := make([]error, len(paths))
	var wg sync.WaitGroup
	for i, p := range paths {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			f.shardBoot[i] = timed(tr, "serve.boot", 0, func() {
				f.shards[i], errs[i] = serve.New(serve.Config{
					Artifact: p, ShardIndex: i, ShardCount: len(paths), Logger: discardLogger(),
				})
				if errs[i] == nil {
					f.shardHTTP[i], errs[i] = listen(f.shards[i].Handler())
				}
			})
		}(i, p)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		f.close()
		return nil, err
	}
	urls := make([]string, len(paths))
	for i, h := range f.shardHTTP {
		urls[i] = h.url
	}
	f.rtClient = newClient(2 * readShards)
	rt, err := router.New(router.Config{
		Shards:    len(paths),
		Transport: &router.HTTPTransport{BaseURLs: urls, Client: f.rtClient},
		Logger:    discardLogger(),
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.rt = rt
	if f.routerHTTP, err = listen(rt.Handler()); err != nil {
		f.close()
		return nil, err
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		ready, err := fleetReady(f, client)
		if ready {
			break
		}
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("fleet not ready after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	f.coldstart = time.Since(t0)
	return f, nil
}

// fleetReady probes every shard through the router and requires /readyz
// 200 plus a closed circuit for every shard in /v1/stats.
func fleetReady(f *fleet, client *http.Client) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if n := f.rt.ProbeOnce(ctx); n != len(f.shards) {
		return false, fmt.Errorf("%d of %d shards ready", n, len(f.shards))
	}
	rep, err := doHTTP(client, http.MethodGet, f.routerHTTP.url+"/readyz", nil)
	if err != nil || rep.status != http.StatusOK {
		return false, fmt.Errorf("router /readyz: %d %v", rep.status, err)
	}
	st, err := routerStats(client, f.routerHTTP.url)
	if err != nil {
		return false, err
	}
	for _, sh := range st.Shards {
		if sh.Breaker != "closed" {
			return false, fmt.Errorf("shard %d breaker %s", sh.Shard, sh.Breaker)
		}
	}
	return true, nil
}

type routerStatsDoc struct {
	Shards []struct {
		Shard     int    `json:"shard"`
		Breaker   string `json:"breaker"`
		Requests  int64  `json:"requests"`
		Retries   int64  `json:"retries"`
		Hedges    int64  `json:"hedges"`
		HedgeWins int64  `json:"hedge_wins"`
	} `json:"shards"`
}

func routerStats(c *http.Client, url string) (routerStatsDoc, error) {
	var doc routerStatsDoc
	rep, err := doHTTP(c, http.MethodGet, url+"/v1/stats", nil)
	if err != nil {
		return doc, err
	}
	if rep.status != http.StatusOK {
		return doc, fmt.Errorf("router /v1/stats: %d", rep.status)
	}
	return doc, json.Unmarshal(rep.body, &doc)
}

// serveStatsDoc is the part of a server's /v1/stats the benchmark reads.
type serveStatsDoc struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Mutations struct {
		Applied int64 `json:"applied"`
		Failed  int64 `json:"failed"`
	} `json:"mutations"`
}

func serverStats(c *http.Client, url string) (serveStatsDoc, error) {
	var doc serveStatsDoc
	rep, err := doHTTP(c, http.MethodGet, url+"/v1/stats", nil)
	if err != nil {
		return doc, err
	}
	if rep.status != http.StatusOK {
		return doc, fmt.Errorf("/v1/stats: %d", rep.status)
	}
	return doc, json.Unmarshal(rep.body, &doc)
}

// readInputs is a booted read path: the artifact's own predictions and
// the fleet cold-started from its shard files.
type readInputs struct {
	store      *core.EdgeStore
	fleet      *fleet
	load, cut  time.Duration
	shardPaths []string
}

// prepareRead writes the artifact bytes to dir, loads them back, cuts the
// artifact into shard files and cold-starts the fleet from them.
func prepareRead(data []byte, dir string, tr *tracer, client *http.Client) (*readInputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	full := filepath.Join(dir, "model.locec")
	if err := os.WriteFile(full, data, 0o644); err != nil {
		return nil, err
	}
	in := &readInputs{}
	var art *artifact.Artifact
	var err error
	in.load = timed(tr, "artifact.load", 0, func() { art, err = artifact.LoadFile(full) })
	if err != nil {
		return nil, err
	}
	// The reference answers come from the artifact itself.
	ex, err := art.Export()
	if err != nil {
		return nil, err
	}
	ref, err := core.NewPipeline(core.Config{Seed: art.Meta().Seed}).RunFromArtifact(ex)
	if err != nil {
		return nil, err
	}
	in.store = ref.Edges
	in.cut = timed(tr, "artifact.cut", 0, func() {
		var cuts []*artifact.Artifact
		if cuts, err = artifact.CutShards(art, readShards); err != nil {
			return
		}
		for i, c := range cuts {
			p := artifact.ShardPath(full, i, readShards)
			if err = c.SaveFile(p); err != nil {
				return
			}
			in.shardPaths = append(in.shardPaths, p)
		}
	})
	if err != nil {
		return nil, err
	}
	if in.fleet, err = bootFleet(in.shardPaths, tr, client); err != nil {
		return nil, err
	}
	return in, nil
}

// readTraffic is the request table of one serve-read run.
type readTraffic struct {
	edges   [][2]uint32 // GET /v1/edge keys, Zipf-skewed over existing edges
	batches [][][2]uint32
	bodies  [][]byte // POST /v1/classify bodies; the first hotBatches are the hot pool
}

func newReadTraffic(st *core.EdgeStore, seed int64, edgeOps, freshBatches int) *readTraffic {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pick := newZipfPicker(rng, st.Len())
	key := func() [2]uint32 {
		e := graph.EdgeFromKey(st.Keys()[pick.next()])
		return [2]uint32{uint32(e.U), uint32(e.V)}
	}
	t := &readTraffic{edges: make([][2]uint32, edgeOps)}
	for i := range t.edges {
		t.edges[i] = key()
	}
	for b := 0; b < hotBatches+freshBatches; b++ {
		batch := make([][2]uint32, classifyBatch)
		doc := struct {
			Edges []map[string]uint32 `json:"edges"`
		}{}
		for j := range batch {
			batch[j] = key()
			doc.Edges = append(doc.Edges, map[string]uint32{"u": batch[j][0], "v": batch[j][1]})
		}
		body, _ := json.Marshal(doc) // plain maps of integers always encode
		t.batches = append(t.batches, batch)
		t.bodies = append(t.bodies, body)
	}
	return t
}

func edgePath(e [2]uint32) string {
	return "/v1/edge?u=" + strconv.FormatUint(uint64(e[0]), 10) + "&v=" + strconv.FormatUint(uint64(e[1]), 10)
}

// edgeDoc / classifyDoc mirror the serving wire format.
type edgeDoc struct {
	U     uint32 `json:"u"`
	V     uint32 `json:"v"`
	Found bool   `json:"found"`
	Label string `json:"label"`
	Probs *struct {
		Colleague  float64 `json:"colleague"`
		Family     float64 `json:"family"`
		Schoolmate float64 `json:"schoolmate"`
	} `json:"probabilities"`
}

type classifyDoc struct {
	Results []*edgeDoc `json:"results"`
	Partial bool       `json:"partial"`
}

// checkEdge requires an answer to equal the artifact's own EdgeStore entry.
func checkEdge(st *core.EdgeStore, e [2]uint32, d *edgeDoc) error {
	if d == nil {
		return fmt.Errorf("edge {%d,%d}: null result", e[0], e[1])
	}
	i, ok := st.Find((graph.Edge{U: graph.NodeID(e[0]), V: graph.NodeID(e[1])}).Key())
	if !ok {
		return fmt.Errorf("edge {%d,%d} not in the artifact", e[0], e[1])
	}
	p := st.ProbsAt(i)
	switch {
	case d.U != e[0] || d.V != e[1]:
		return fmt.Errorf("edge {%d,%d}: answer is for {%d,%d}", e[0], e[1], d.U, d.V)
	case !d.Found || d.Probs == nil:
		return fmt.Errorf("edge {%d,%d}: answered not found", e[0], e[1])
	case d.Label != st.LabelAt(i).String():
		return fmt.Errorf("edge {%d,%d}: label %q, artifact has %q", e[0], e[1], d.Label, st.LabelAt(i))
	case d.Probs.Colleague != p[0] || d.Probs.Family != p[1] || d.Probs.Schoolmate != p[2]:
		return fmt.Errorf("edge {%d,%d}: probabilities %+v, artifact has %v", e[0], e[1], *d.Probs, p)
	}
	return nil
}

func checkEdgeBody(st *core.EdgeStore, e [2]uint32, body []byte) error {
	var d edgeDoc
	if err := json.Unmarshal(body, &d); err != nil {
		return fmt.Errorf("edge {%d,%d}: %v", e[0], e[1], err)
	}
	return checkEdge(st, e, &d)
}

func checkClassifyBody(st *core.EdgeStore, batch [][2]uint32, body []byte) error {
	var d classifyDoc
	if err := json.Unmarshal(body, &d); err != nil {
		return fmt.Errorf("classify: %v", err)
	}
	if d.Partial {
		return fmt.Errorf("classify answered partial: true")
	}
	if len(d.Results) != len(batch) {
		return fmt.Errorf("classify: %d results for %d edges", len(d.Results), len(batch))
	}
	for j, e := range batch {
		if err := checkEdge(st, e, d.Results[j]); err != nil {
			return fmt.Errorf("classify: %w", err)
		}
	}
	return nil
}

// sendReads runs one open loop of edge and classify requests against
// url with two senders and returns the loop's result and each successful
// answer's body, which check verifies after the timed run.
func sendReads(sched []op, t *readTraffic, url string, c *http.Client, tr *tracer) (loadResult, [][]byte) {
	bodies := make([][]byte, len(sched))
	lr := openLoop(sched, 2, func(_, i int) bool {
		var rep httpReply
		var err error
		o := sched[i]
		if o.kind == kindEdge {
			timed(tr, "router.http_edge", 0, func() {
				rep, err = doHTTP(c, http.MethodGet, url+edgePath(t.edges[o.arg%len(t.edges)]), nil)
			})
		} else {
			timed(tr, "router.http_classify", 0, func() {
				rep, err = doHTTP(c, http.MethodPost, url+"/v1/classify", t.bodies[o.arg])
			})
		}
		if err != nil || rep.status != http.StatusOK {
			return false
		}
		bodies[i] = rep.body
		return true
	})
	return lr, bodies
}

// checkReads verifies every successful answer of a loop; it reports the
// first few mismatches and returns how many there were.
func checkReads(sched []op, lr loadResult, bodies [][]byte, t *readTraffic, st *core.EdgeStore, r *report) int {
	bad := 0
	for i, o := range sched {
		if !lr.outs[i].ok {
			continue
		}
		var err error
		if o.kind == kindEdge {
			err = checkEdgeBody(st, t.edges[o.arg%len(t.edges)], bodies[i])
		} else {
			err = checkClassifyBody(st, t.batches[o.arg], bodies[i])
		}
		if err != nil {
			if bad < 3 {
				r.fail("%v", err)
			}
			bad++
		}
	}
	return bad
}

// swapFirstAnswers swaps the answers of the first two successful edge
// requests for different edges, as a server answering for the wrong key
// would; the tests use it to show checkReads catches a corrupt response.
func swapFirstAnswers(sched []op, lr loadResult, bodies [][]byte, t *readTraffic) {
	first := -1
	for i, o := range sched {
		if o.kind != kindEdge || !lr.outs[i].ok {
			continue
		}
		if first < 0 {
			first = i
		} else if t.edges[o.arg%len(t.edges)] != t.edges[sched[first].arg%len(t.edges)] {
			bodies[first], bodies[i] = bodies[i], bodies[first]
			return
		}
	}
}

// fixedSchedule interleaves edge and classify requests at their fixed
// rates and returns how many fresh classify batches it uses. Classify
// requests alternate between the hot pool and fresh batches, so half can
// be answered from the shards' caches.
func fixedSchedule(d time.Duration) ([]op, int) {
	const total = edgeRate + classifyRate
	c := 0
	sched := constantRate(total, d, func(i int) (int, int) {
		if (i+1)*classifyRate/total == i*classifyRate/total {
			return kindEdge, i
		}
		c++
		if c%2 == 0 {
			return kindClassify, (c / 2) % hotBatches
		}
		return kindClassify, hotBatches + c/2
	})
	return sched, c/2 + 1
}

// ladderRate is the offered edge rate of ladder step k.
func ladderRate(k int) float64 { return ladderMin * math.Pow(ladderStep, float64(k)) }

// maxReadRate finds the highest ladder step whose edge rate meets
// edgeLimitMs at p99 with no failures and no growing backlog. Both
// senders first run edge reads back to back for saturateSeconds; the
// achieved rate bounds the answer from above, and the search walks down
// the ladder from there. Each step runs at least probeSeconds and at
// least 1000 requests, so its p99 has ten samples beyond it, and a step
// that fails runs once more: one burst of host noise costs one 5% step,
// not half the range as in a bisection.
func maxReadRate(t *readTraffic, url string, c *http.Client, st *core.EdgeStore, r *report) float64 {
	ceiling := saturatedRate(t, url, c, st, r)
	k := int(math.Floor(math.Log(ceiling/ladderMin) / math.Log(ladderStep)))
	for ; k >= 0; k-- {
		rate := ladderRate(k)
		d := time.Duration(math.Max(probeSeconds, 1000/rate) * float64(time.Second))
		sched := constantRate(rate, d, func(i int) (int, int) { return kindEdge, i })
		for attempt := 0; attempt < 2; attempt++ {
			runtime.GC()
			lr, bodies := sendReads(sched, t, url, c, nil)
			r.attempted += len(sched)
			r.failed += lr.failures()
			checkReads(sched, lr, bodies, t, st, r)
			p99 := quantile(lr.latenciesMs(sched, kindEdge), 0.99)
			if p99 <= edgeLimitMs && lr.failures() == 0 && lr.backlog*100 <= len(sched) {
				return rate
			}
		}
	}
	return 0
}

// saturatedRate runs edge reads back to back from both senders for
// saturateSeconds and returns the completed requests per second.
func saturatedRate(t *readTraffic, url string, c *http.Client, st *core.EdgeStore, r *report) float64 {
	const senders = 2
	var wg sync.WaitGroup
	done := make([]int, senders)
	bad := make([]int, senders)
	runtime.GC()
	start := time.Now()
	deadline := start.Add(saturateSeconds * time.Second)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; time.Now().Before(deadline); i += senders {
				e := t.edges[i%len(t.edges)]
				rep, err := doHTTP(c, http.MethodGet, url+edgePath(e), nil)
				if err != nil || rep.status != http.StatusOK || checkEdgeBody(st, e, rep.body) != nil {
					bad[s]++
					continue
				}
				done[s]++
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for s := range done {
		r.attempted += done[s] + bad[s]
		r.failed += bad[s]
		if bad[s] > 0 {
			r.fail("%d edge reads failed or answered wrong at saturation", bad[s])
		}
	}
	return float64(done[0]+done[1]) / elapsed.Seconds()
}

// capMs turns a latency percentile that fell on a failed request (+Inf)
// into the longest latency the generator can observe, so the metric
// stays a number and reads as missing every limit.
func capMs(v float64, d time.Duration) float64 {
	if math.IsInf(v, 1) {
		return float64(d+abandonAfter) / 1e6
	}
	return v
}

func runServeRead(o options, r *report) error {
	client := newClient(2)
	defer client.CloseIdleConnections()
	reps := readSetupReps
	if o.trace {
		reps = 1
	}
	var setups []float64
	var in *readInputs
	// The traced run keeps its dataset and training for the write tour;
	// the untraced run serves without them, as a serving process would.
	var tourDS *social.Dataset
	var tour *trained
	f1 := 0.0
	for i := 0; i < reps; i++ {
		if in != nil {
			in.fleet.close()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		ds, test, err := makeDataset(trainXGB.size(o), o.seed, true)
		if err != nil {
			return err
		}
		var t *trained
		if o.trace {
			t, err = tracedTrain(trainXGB, ds, test, o, r)
			tourDS, tour = ds, t
		} else {
			t, err = trainPublic(trainXGB, ds, o.seed)
		}
		if err != nil {
			return err
		}
		if in, err = prepareRead(t.data, filepath.Join(o.workDir, fmt.Sprintf("read-%d", i)), r.tr, client); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		v, err := heldOutF1(ds, t.res, test)
		if err != nil {
			r.fail("%v", err)
		}
		if i > 0 && v != f1 {
			r.fail("macro-F1 changed between set-ups: %v then %v", f1, v)
		}
		f1 = v
	}
	defer in.fleet.close()

	d := time.Duration(o.seconds * float64(time.Second))
	sched, traffic, lr := readLoop(in, d, o, r, client)
	servePeak := peakRSSMB()
	if o.trace {
		setGen(r, lr)
		if err := readLayers(r, in, traffic, sched, lr, d, client); err != nil {
			return err
		}
		return writeTour(o, r, tourDS, tour)
	}
	r.set("setup_s", "s", median(setups))
	r.set("peak_rss_mb", "MB", servePeak)
	r.set("macro_f1", "ratio", f1)
	r.set("op_p50_ms", "ms", capMs(lr.windowed(sched, kindEdge, 0.50), d))
	fmt.Fprintf(o.log, "perfbench: serve-read: %d requests at the fixed rate, backlog %d\n", len(sched), lr.backlog)
	return nil
}

// readLoop runs the fixed-rate edge and classify loop through the router
// over HTTP for d, checks every answer against the artifact, and returns
// the schedule, its request table and the loop's result.
func readLoop(in *readInputs, d time.Duration, o options, r *report, client *http.Client) ([]op, *readTraffic, loadResult) {
	sched, fresh := fixedSchedule(d)
	t := newReadTraffic(in.store, o.seed, len(sched), fresh)
	freshPeak() // set-up garbage is not the measured loop's to collect
	lr, bodies := sendReads(sched, t, in.fleet.routerHTTP.url, client, r.tr)
	if o.corrupt {
		swapFirstAnswers(sched, lr, bodies, t)
	}
	r.attempted += len(sched)
	r.failed += lr.failures()
	checkReads(sched, lr, bodies, t, in.store, r)
	return sched, t, lr
}

// readTour is the read half of the traced run of a workload whose own
// loop does not read through the router: it serves the workload's
// artifact from a fleet, runs a short fixed-rate loop, reports the read
// layers' metrics on it and returns the loop's result.
func readTour(o options, r *report, data []byte) (loadResult, error) {
	client := newClient(2)
	defer client.CloseIdleConnections()
	in, err := prepareRead(data, filepath.Join(o.workDir, "read-tour"), r.tr, client)
	if err != nil {
		return loadResult{}, err
	}
	defer in.fleet.close()
	d := time.Duration(min(tourSeconds, o.seconds) * float64(time.Second))
	sched, t, lr := readLoop(in, d, o, r, client)
	return lr, readLayers(r, in, t, sched, lr, d, client)
}

// readLayers is the traced run's per-layer pass over a read path: the
// fixed-rate loop's latencies and the router's and shards' own counters
// after it, the same request stream through EdgeStore.Find, each shard
// handler in process, the router over HandlerTransport and one shard over
// HTTP, and last the read_max_rps search.
func readLayers(r *report, in *readInputs, t *readTraffic, sched []op, lr loadResult, d time.Duration, client *http.Client) error {
	f := in.fleet
	r.set("edge_p50_ms", "ms", capMs(lr.windowed(sched, kindEdge, 0.50), d))
	r.set("edge_p99_ms", "ms", capMs(lr.windowed(sched, kindEdge, 0.99), d))
	r.set("classify_p50_ms", "ms", capMs(lr.windowed(sched, kindClassify, 0.50), d))
	r.set("classify_p99_ms", "ms", capMs(lr.windowed(sched, kindClassify, 0.99), d))
	r.set("coldstart_s", "s", f.coldstart.Seconds())
	rs, err := routerStats(client, f.routerHTTP.url)
	if err != nil {
		return err
	}
	var reqs, retries, hedges, wins int64
	for _, s := range rs.Shards {
		reqs += s.Requests
		retries += s.Retries
		hedges += s.Hedges
		wins += s.HedgeWins
	}
	var hits, misses int64
	for _, h := range f.shardHTTP {
		ss, err := serverStats(client, h.url)
		if err != nil {
			return err
		}
		hits += ss.Cache.Hits
		misses += ss.Cache.Misses
	}
	nEdge, nCls := 0, 0
	for _, o := range sched {
		if o.kind == kindEdge {
			nEdge++
		} else {
			nCls++
		}
	}
	r.set("router.hedge_ratio", "ratio", ratio(hedges, reqs))
	r.set("router.hedge_win_ratio", "ratio", ratio(wins, hedges))
	r.set("router.retries", "count", float64(retries))
	r.set("router.fanout_shards", "shards", float64(reqs-int64(nEdge))/float64(nCls))
	r.set("serve.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	r.set("artifact.load_s", "s", in.load.Seconds())
	r.set("artifact.cut_s", "s", in.cut.Seconds())
	slowest := time.Duration(0)
	for _, d := range f.shardBoot {
		slowest = max(slowest, d)
	}
	r.set("serve.coldstart_s", "s", slowest.Seconds())

	// EdgeStore.Find on the same key stream: one span around the loop,
	// since a span per 100ns lookup would measure the tracer.
	keys := make([]uint64, len(t.edges))
	for i, e := range t.edges {
		keys[i] = (graph.Edge{U: graph.NodeID(e[0]), V: graph.NodeID(e[1])}).Key()
	}
	const findTarget = 2_000_000
	found := 0
	find := r.tr.do("core.edgestore_find_loop", 0, func() {
		for n := 0; n < findTarget; n += len(keys) {
			for _, k := range keys {
				if _, ok := in.store.Find(k); ok {
					found++
				}
			}
		}
	})
	r.attempted += found
	r.set("core.edgestore_find_ns", "ns", float64(find.Nanoseconds())/float64(found))

	// Shard handlers in process, untraced and traced passes in turn after
	// one warm-up pass, each after a forced GC: the difference of the
	// fastest pass of each kind is the tracing overhead. Noise only adds
	// time, so the fastest pass is the steadiest estimate of the work.
	rg, err := ring.New(readShards)
	if err != nil {
		return err
	}
	handlers := make([]http.Handler, readShards)
	for i, s := range f.shards {
		handlers[i] = s.Handler()
	}
	serveEdge := func(e [2]uint32) int {
		rec := httptest.NewRecorder()
		handlers[rg.OwnerEdge(e[0], e[1])].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, edgePath(e), nil))
		return rec.Code
	}
	for _, e := range t.edges {
		serveEdge(e)
	}
	const overheadPasses = 3
	untraced, traced := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for pass := 0; pass < overheadPasses; pass++ {
		runtime.GC()
		t0 := time.Now()
		for _, e := range t.edges {
			serveEdge(e)
		}
		untraced = min(untraced, time.Since(t0))
		runtime.GC()
		t0 = time.Now()
		for _, e := range t.edges {
			var code int
			r.tr.do("serve.edge", 0, func() { code = serveEdge(e) })
			r.attempted++
			if code != http.StatusOK {
				r.failed++
			}
		}
		traced = min(traced, time.Since(t0))
	}
	r.set("trace.overhead_s", "s", (traced - untraced).Seconds())
	se := seconds(r.tr.durations("serve.edge"))
	r.set("serve.edge_p50_us", "us", quantile(se, 0.50)*1e6)
	r.set("serve.edge_p99_us", "us", quantile(se, 0.99)*1e6)

	// Classify sub-batches per owning shard, encoded as the router sends
	// them, so hot batches hit the same cache entries.
	for _, o := range sched {
		if o.kind != kindClassify {
			continue
		}
		byShard := map[int][]map[string]uint32{}
		for _, e := range t.batches[o.arg] {
			sh := rg.OwnerEdge(e[0], e[1])
			byShard[sh] = append(byShard[sh], map[string]uint32{"u": e[0], "v": e[1]})
		}
		for sh, edges := range byShard {
			body, _ := json.Marshal(map[string]any{"edges": edges})
			rec := httptest.NewRecorder()
			r.tr.do("serve.classify", 0, func() {
				handlers[sh].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
			})
			r.attempted++
			if rec.Code != http.StatusOK {
				r.failed++
			}
		}
	}
	r.set("serve.classify_p99_us", "us", quantile(seconds(r.tr.durations("serve.classify")), 0.99)*1e6)

	// The router over in-process shard handlers: no wire on either side.
	inproc, err := router.New(router.Config{
		Shards: readShards, Transport: &router.HandlerTransport{Handlers: handlers}, Logger: discardLogger(),
	})
	if err != nil {
		return err
	}
	rh := inproc.Handler()
	for _, o := range sched {
		rec := httptest.NewRecorder()
		if o.kind == kindEdge {
			e := t.edges[o.arg%len(t.edges)]
			r.tr.do("router.edge", 0, func() { rh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, edgePath(e), nil)) })
		} else {
			r.tr.do("router.classify", 0, func() {
				rh.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(t.bodies[o.arg])))
			})
		}
		r.attempted++
		if rec.Code != http.StatusOK {
			r.failed++
		} else if o.kind == kindEdge {
			if err := checkEdgeBody(in.store, t.edges[o.arg%len(t.edges)], rec.Body.Bytes()); err != nil {
				r.fail("in-process router: %v", err)
			}
		}
	}
	re := seconds(r.tr.durations("router.edge"))
	r.set("router.edge_p50_us", "us", quantile(re, 0.50)*1e6)
	r.set("router.edge_p99_us", "us", quantile(re, 0.99)*1e6)
	r.set("router.classify_p99_us", "us", quantile(seconds(r.tr.durations("router.classify")), 0.99)*1e6)

	// One shard over HTTP, bypassing the router: closed loop, one sender.
	for _, e := range t.edges[:min(len(t.edges), 2000)] {
		var rep httpReply
		var err error
		owner := f.shardHTTP[rg.OwnerEdge(e[0], e[1])].url
		r.tr.do("serve.http_edge", 0, func() { rep, err = doHTTP(client, http.MethodGet, owner+edgePath(e), nil) })
		r.attempted++
		if err != nil || rep.status != http.StatusOK {
			r.failed++
		}
	}
	r.set("serve.http_edge_p50_ms", "ms", quantile(seconds(r.tr.durations("serve.http_edge")), 0.50)*1e3)
	r.set("read_max_rps", "1/s", maxReadRate(t, f.routerHTTP.url, client, in.store, r))
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
