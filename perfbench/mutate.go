package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"locec"
	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/serve"
	"locec/internal/social"
	"locec/internal/wal"
)

// mutate traffic: one writer and one reader connection (the load never
// holds more connections than the host has CPUs). A writer that waits
// for its epoch cannot overlap batches, so epochs carry one batch each.
// An apply takes about 30 ms on a 2-CPU host, so at 12.5 batches
// a second the applier is busy 40% of the time. At 15 a second, host
// contention that slowed applies by a third raised the visible latency
// by half through queueing; at 20 to 30 a second one noisy second
// started a backlog the run never drained. The 300:12.5 read:write mix
// and the add/remove/relabel split of planMutations are assumptions
// (README.md); no traffic data exists.
const (
	mutRate      = 12.5 // POST /v1/mutations batches per second
	mutBatch     = 2    // mutations per batch
	mutReadRate  = 300  // GET /v1/edge per second beside the writes
	mutSetupReps = 2    // each set-up trains an n=10000 server
	// tourBatches is how many batches the write tour applies in the
	// traced run of a workload without a mutable server.
	tourBatches, tinyTourBatches = 40, 8
)

// mutShape is the mutable server's model: the local clauset detector, so
// the incremental engine takes its seeded re-division path, and XGB. The
// traced run trains the same shape through the stages for the training
// layers' metrics.
var mutShape = trainShape{users: 10000, tinyUsers: 300, detector: "clauset", variant: locec.VariantXGB}

// mutPlan is one planned batch. Every mutation touches an edge no other
// mutation of the run touches, so batches are valid in any order.
type mutPlan struct {
	body  []byte
	muts  []core.Mutation
	probe [2]uint32 // the batch's first edge, read back after the epoch
	found bool      // whether the probe edge exists after the batch
}

var wireLabels = []struct {
	name  string
	label social.Label
}{{"colleague", social.Colleague}, {"family", social.Family}, {"schoolmate", social.Schoolmate}}

// planMutations draws n batches of adds, removes and relabels on
// Zipf-chosen nodes, and returns them with the set of touched edge keys.
func planMutations(g *graph.Graph, seed int64, n int) ([]mutPlan, map[uint64]bool) {
	rng := rand.New(rand.NewSource(seed ^ 0x3a7e))
	nodes := newZipfPicker(rng, g.NumNodes())
	touched := map[uint64]bool{}
	var plans []mutPlan
	for tries := 0; len(plans) < n && tries < 100*n; {
		var p mutPlan
		var docs []map[string]any
		for len(docs) < mutBatch && tries < 100*n {
			tries++
			u := graph.NodeID(nodes.next())
			var v graph.NodeID
			op := rng.Intn(10)
			if op < 4 { // add a friendship that does not exist
				v = graph.NodeID(rng.Intn(g.NumNodes()))
				if v == u || g.HasEdge(u, v) {
					continue
				}
			} else { // remove or relabel an existing one
				nb := g.Neighbors(u)
				if len(nb) == 0 {
					continue
				}
				v = nb[rng.Intn(len(nb))]
			}
			k := (graph.Edge{U: u, V: v}).Key()
			if touched[k] {
				continue
			}
			touched[k] = true
			wl := wireLabels[rng.Intn(len(wireLabels))]
			doc := map[string]any{"u": uint32(u), "v": uint32(v)}
			m := core.Mutation{U: u, V: v}
			switch {
			case op < 4:
				doc["op"], doc["label"] = "add", wl.name
				m.Kind, m.Label = core.MutAdd, wl.label
			case op < 7:
				doc["op"] = "remove"
				m.Kind = core.MutRemove
			default:
				doc["op"], doc["label"] = "relabel", wl.name
				m.Kind, m.Label, m.Revealed = core.MutRelabel, wl.label, true
			}
			if len(docs) == 0 {
				p.probe, p.found = [2]uint32{uint32(u), uint32(v)}, m.Kind != core.MutRemove
			}
			docs = append(docs, doc)
			p.muts = append(p.muts, m)
		}
		if len(docs) < mutBatch {
			break
		}
		p.body, _ = json.Marshal(map[string]any{"wait": true, "mutations": docs}) // maps of plain values always encode
		plans = append(plans, p)
	}
	return plans, touched
}

// readKeys draws n Zipf-skewed edges that no mutation touches, so every
// read must find its edge.
func readKeys(g *graph.Graph, seed int64, n int, touched map[uint64]bool) [][2]uint32 {
	rng := rand.New(rand.NewSource(seed ^ 0x4ead))
	edges := g.Edges()
	pick := newZipfPicker(rng, len(edges))
	out := make([][2]uint32, 0, n)
	for len(out) < n {
		e := edges[pick.next()]
		if !touched[e.Key()] {
			out = append(out, [2]uint32{uint32(e.U), uint32(e.V)})
		}
	}
	return out
}

// receipt is the part of a wait:true mutation answer the benchmark reads.
type receipt struct {
	Epoch    int64 `json:"epoch"`
	Snapshot struct {
		Version int64 `json:"version"`
	} `json:"snapshot"`
	DirtyNodes   int     `json:"dirty_nodes"`
	DirtyEdges   int     `json:"dirty_edges"`
	SeededEgos   int     `json:"seeded_egos"`
	ApplySeconds float64 `json:"apply_seconds"`
}

// mutServer is one booted mutable server.
type mutServer struct {
	srv  *serve.Server
	http *httpService
}

func (m *mutServer) close() {
	m.http.close()
	m.srv.Close()
}

// setupMutate boots a trainable server on ds with a WAL in dir, returning
// once /readyz answers 200.
func setupMutate(o options, ds *social.Dataset, dir string, client *http.Client) (*mutServer, error) {
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Users: mutShape.size(o), Variant: "xgb", Detector: mutShape.detector, Seed: o.seed,
		WALDir: walDir, Logger: discardLogger(),
		Source: func(int64) (*social.Dataset, error) { return ds, nil },
	})
	if err != nil {
		return nil, err
	}
	hs, err := listen(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	m := &mutServer{srv: srv, http: hs}
	rep, err := doHTTP(client, http.MethodGet, hs.url+"/readyz", nil)
	if err != nil || rep.status != http.StatusOK {
		m.close()
		return nil, fmt.Errorf("mutable server not ready: %d %v", rep.status, err)
	}
	return m, nil
}

// exportModel saves the server's live snapshot as artifact bytes and
// restores its predictions from them.
func exportModel(m *mutServer) ([]byte, *core.Result, error) {
	var buf bytes.Buffer
	if err := m.srv.ExportArtifact(&buf); err != nil {
		return nil, nil, err
	}
	back, err := locec.ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), back.Internal(), nil
}

func runMutate(o options, r *report) error {
	client := newClient(2)
	defer client.CloseIdleConnections()
	reps := mutSetupReps
	if o.trace {
		reps = 1
	}
	var setups []float64
	var m *mutServer
	var ds *social.Dataset
	var test []uint64
	f1 := 0.0
	for i := 0; i < reps; i++ {
		if m != nil {
			m.close()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if ds, test, err = makeDataset(mutShape.size(o), o.seed, true); err != nil {
			return err
		}
		if m, err = setupMutate(o, ds, filepath.Join(o.workDir, fmt.Sprintf("mutate-%d", i)), client); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		// The served model's held-out macro-F1, before any write.
		_, res, err := exportModel(m)
		if err != nil {
			m.close()
			return err
		}
		v, err := heldOutF1(ds, res, test)
		if err != nil {
			r.fail("%v", err)
		}
		if i > 0 && v != f1 {
			r.fail("macro-F1 changed between set-ups: %v then %v", f1, v)
		}
		f1 = v
	}
	defer m.close()

	d := time.Duration(o.seconds * float64(time.Second))
	wsched := constantRate(mutRate, d, func(i int) (int, int) { return kindMutation, i })
	rsched := constantRate(mutReadRate, d, func(i int) (int, int) { return kindEdge, i })
	plans, touched := planMutations(ds.G, o.seed, len(wsched))
	if len(plans) < len(wsched) {
		return fmt.Errorf("planned only %d of %d mutation batches", len(plans), len(wsched))
	}
	reads := readKeys(ds.G, o.seed, len(rsched), touched)
	if o.corrupt {
		plans[0].found = !plans[0].found // expect the opposite of the truth
	}
	if o.conflict {
		// Each batch adds two edges that already exist; the applier
		// rejects the whole batch.
		for i := range plans {
			a, b := reads[(2*i)%len(reads)], reads[(2*i+1)%len(reads)]
			plans[i].body = fmt.Appendf(nil, `{"wait":true,"mutations":[{"op":"add","u":%d,"v":%d,"label":"family"},{"op":"add","u":%d,"v":%d,"label":"family"}]}`,
				a[0], a[1], b[0], b[1])
		}
	}
	url := m.http.url

	receipts := make([]receipt, len(wsched))
	// rejected counts the mutations of batches the server answered 409 or
	// 5xx, which its applier counts as failed; a 503 is a refusal at
	// intake, which it does not count. unknown counts the mutations of
	// batches whose answer never arrived (a transport error or client
	// timeout): the server may have applied or failed them.
	rejected, unknown := 0, 0
	var wlr, rlr loadResult
	var wg sync.WaitGroup
	freshPeak() // set-up garbage is not the measured loops' to collect
	wg.Add(2)
	go func() {
		defer wg.Done()
		wlr = openLoop(wsched, 1, func(_, i int) bool {
			p := plans[i]
			var rep, probe httpReply
			var err error
			timed(r.tr, "serve.http_mutation", 0, func() {
				rep, err = doHTTP(client, http.MethodPost, url+"/v1/mutations", p.body)
			})
			switch {
			case err != nil:
				unknown += len(p.muts)
				return false
			case rep.status == http.StatusConflict || (rep.status >= 500 && rep.status != http.StatusServiceUnavailable):
				rejected += len(p.muts)
				return false
			case rep.status != http.StatusOK:
				return false
			}
			rc := &receipts[i]
			if err := json.Unmarshal(rep.body, rc); err != nil || rc.Epoch == 0 {
				r.fail("mutation %d: bad receipt %q", i, rep.body)
				return false
			}
			timed(r.tr, "serve.http_edge_probe", 0, func() {
				probe, err = doHTTP(client, http.MethodGet, url+edgePath(p.probe), nil)
			})
			if err != nil {
				return false
			}
			v, _ := strconv.ParseInt(probe.version, 10, 64)
			if v < rc.Snapshot.Version || (probe.status == http.StatusOK) != p.found {
				r.fail("epoch %d not visible to the next read: edge {%d,%d} answered %d at snapshot %d, epoch published snapshot %d",
					rc.Epoch, p.probe[0], p.probe[1], probe.status, v, rc.Snapshot.Version)
				return false
			}
			return true
		})
	}()
	go func() {
		defer wg.Done()
		last := int64(0)
		rlr = openLoop(rsched, 1, func(_, i int) bool {
			var rep httpReply
			var err error
			timed(r.tr, "serve.http_edge", 0, func() {
				rep, err = doHTTP(client, http.MethodGet, url+edgePath(reads[i]), nil)
			})
			if err != nil || rep.status != http.StatusOK {
				return false
			}
			v, _ := strconv.ParseInt(rep.version, 10, 64)
			if v < last {
				r.fail("read %d saw snapshot %d after %d", i, v, last)
			}
			last = v
			return true
		})
	}()
	wg.Wait()
	loopPeak := peakRSSMB()
	r.attempted += len(wsched) + len(rsched)
	r.failed += wlr.failures() + rlr.failures()

	// Epochs strictly increase, and the server counts the same failures.
	prev := int64(0)
	for i, rc := range receipts {
		if !wlr.outs[i].ok {
			continue
		}
		if rc.Epoch <= prev {
			r.fail("epoch %d after epoch %d", rc.Epoch, prev)
		}
		prev = rc.Epoch
	}
	st, err := serverStats(client, url)
	if err != nil {
		return err
	}
	if f := st.Mutations.Failed; f < int64(rejected) || f > int64(rejected+unknown) {
		r.fail("server counts %d failed mutations, the benchmark %d rejected and %d unanswered", f, rejected, unknown)
	}
	if o.trace {
		return mutateLayers(o, r, m, ds, test, plans, receipts, wlr, rlr)
	}
	r.set("setup_s", "s", median(setups))
	r.set("peak_rss_mb", "MB", loopPeak)
	r.set("macro_f1", "ratio", f1)
	r.set("op_p50_ms", "ms", capMs(wlr.windowed(wsched, kindMutation, 0.50), d))
	fmt.Fprintf(o.log, "perfbench: mutate: %d mutation and %d read samples, last epoch %d\n", len(wsched), len(rsched), prev)
	return nil
}

// mutateLayers is the traced run's per-layer pass: the apply statistics
// of every receipt, the same batches replayed through the WAL package,
// the mutable server's model trained again through the stages for the
// training layers, and the read tour over the server's final snapshot.
func mutateLayers(o options, r *report, m *mutServer, ds *social.Dataset, test []uint64, plans []mutPlan, receipts []receipt, wlr, rlr loadResult) error {
	var samples []core.ApplyStats
	for i, rc := range receipts {
		if wlr.outs[i].ok {
			samples = append(samples, core.ApplyStats{
				DirtyNodes: rc.DirtyNodes, DirtyEdges: rc.DirtyEdges, SeededEgos: rc.SeededEgos,
				Duration: time.Duration(rc.ApplySeconds * float64(time.Second)),
			})
		}
	}
	applyLayers(r, samples)
	setGen(r, wlr, rlr)
	if err := walLayers(r, plans, filepath.Join(o.workDir, "wal-replay")); err != nil {
		return err
	}
	if _, err := tracedTrain(mutShape, ds, test, o, r); err != nil {
		return err
	}
	data, _, err := exportModel(m)
	if err != nil {
		return err
	}
	_, err = readTour(o, r, data)
	return err
}

// writeTour is the write half of the traced run of a workload without a
// mutable server: it applies planned batches to the workload's trained
// pipeline through Pipeline.ApplyMutations, requires each batch's first
// edge to show the change in the new EdgeStore, and replays the batches
// through the WAL package.
func writeTour(o options, r *report, ds *social.Dataset, t *trained) error {
	n := tourBatches
	if o.tiny {
		n = tinyTourBatches
	}
	plans, _ := planMutations(ds.G, o.seed, n)
	res := t.res
	var samples []core.ApplyStats
	for i, p := range plans {
		var st core.ApplyStats
		var err error
		r.attempted++
		r.tr.do("core.apply_mutations", 0, func() { ds, res, st, err = t.p.ApplyMutations(ds, res, p.muts) })
		if err != nil {
			r.failed++
			r.fail("apply batch %d: %v", i, err)
			continue
		}
		if _, ok := res.Edges.Find(probeKey(p)); ok != p.found {
			r.fail("batch %d: edge {%d,%d} present=%v after the batch, want %v", i, p.probe[0], p.probe[1], ok, p.found)
		}
		samples = append(samples, st)
	}
	applyLayers(r, samples)
	return walLayers(r, plans, filepath.Join(o.workDir, "wal-tour"))
}

func probeKey(p mutPlan) uint64 {
	return (graph.Edge{U: graph.NodeID(p.probe[0]), V: graph.NodeID(p.probe[1])}).Key()
}

// applyLayers reports the incremental engine's work per applied batch.
func applyLayers(r *report, samples []core.ApplyStats) {
	var apply, dirtyE, dirtyN, seeded []float64
	for _, s := range samples {
		apply = append(apply, float64(s.Duration)/1e6)
		dirtyE = append(dirtyE, float64(s.DirtyEdges))
		dirtyN = append(dirtyN, float64(s.DirtyNodes))
		seeded = append(seeded, float64(s.SeededEgos))
	}
	r.set("core.apply_ms_p50", "ms", quantile(apply, 0.50))
	r.set("core.apply_ms_p95", "ms", quantile(apply, 0.95))
	r.set("core.dirty_edges", "edges", mean(dirtyE))
	r.set("core.dirty_nodes", "nodes", mean(dirtyN))
	r.set("core.seeded_egos", "egos", mean(seeded))
}

// setGen reports how late the load generator ran in the given loops and
// how many of their requests were still unsent when their schedules ended.
func setGen(r *report, lrs ...loadResult) {
	var late []float64
	backlog := 0
	for _, lr := range lrs {
		late = append(late, lr.lateMs...)
		backlog += lr.backlog
	}
	r.set("gen.late_p99_ms", "ms", quantile(late, 0.99))
	r.set("gen.backlog", "count", float64(backlog))
}

// walLayers appends each planned batch to a fresh log in dir and syncs
// it, as the server's applier does once per epoch, with a span around
// every call.
func walLayers(r *report, plans []mutPlan, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l, _, err := wal.Open(wal.OSFS{}, dir, wal.SyncBatch)
	if err != nil {
		return err
	}
	for _, p := range plans {
		r.attempted++
		r.tr.do("wal.append", 0, func() { _, err = l.Append(p.muts) })
		if err == nil {
			r.tr.do("wal.sync", 0, func() { err = l.Sync() })
		}
		if err != nil {
			_ = l.Close()
			return err
		}
	}
	st := l.Stats()
	if err := l.Close(); err != nil {
		return err
	}
	appends := seconds(r.tr.durations("wal.append"))
	r.set("wal.append_us_p50", "us", quantile(appends, 0.50)*1e6)
	r.set("wal.append_us_p99", "us", quantile(appends, 0.99)*1e6)
	r.set("wal.fsync_ms", "ms", median(seconds(r.tr.durations("wal.sync")))*1e3)
	r.set("wal.records", "count", float64(st.Records))
	r.set("wal.bytes", "bytes", float64(st.Bytes))
	return nil
}
