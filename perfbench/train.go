package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"locec"
	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/eval"
	"locec/internal/gbdt"
	"locec/internal/graph"
	"locec/internal/logreg"
	"locec/internal/nn"
	"locec/internal/social"
)

// Shared input shape of the training workloads and of the serve-read
// artifact: the survey reveals 40% of edge labels and 20% of the revealed
// ones are held out for macro-F1.
const (
	surveyFraction  = 0.4
	holdoutFraction = 0.2
	// cliK / cliEpochs are the CommCNN settings `locec train` uses.
	cliK      = 16
	cliEpochs = 8
	// minTrainReps trainings are timed per run even when one outlasts
	// --seconds, so train_s is always a median of at least three.
	minTrainReps = 3
	// setupReps is how many times the cheap set-up of a training
	// workload is repeated; setup_s is their median.
	setupReps = 5
)

// trainShape is one training workload.
type trainShape struct {
	users, tinyUsers int
	detector         string // locec / core detector name
	variant          locec.Variant
}

var (
	trainXGB = trainShape{users: 10000, tinyUsers: 300, detector: "labelprop", variant: locec.VariantXGB}
	trainCNN = trainShape{users: 1000, tinyUsers: 150, detector: "gn", variant: locec.VariantCNN}
)

func (s trainShape) size(o options) int {
	if o.tiny {
		return s.tinyUsers
	}
	return s.users
}

// publicConfig is the configuration `locec train` builds for this shape.
func (s trainShape) publicConfig(seed int64) (locec.Config, error) {
	det, err := locec.ParseDetector(s.detector)
	return locec.Config{Variant: s.variant, Detector: det, K: cliK, Epochs: cliEpochs, Seed: seed}, err
}

// coreConfig assembles the same pipeline from the core stages, exactly
// as locec.Classify wires publicConfig; the tests pin that both produce
// the same EdgeStore digest.
func (s trainShape) coreConfig(seed int64) (core.Config, error) {
	det, err := core.ParseDetector(s.detector)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{Seed: seed, Division: core.DivisionConfig{Seed: seed, Detector: det}}
	if s.variant == locec.VariantXGB {
		cfg.Classifier = &core.XGBClassifier{Config: gbdt.Config{Seed: seed}, Seed: seed}
	} else {
		cfg.Classifier = &core.CNNClassifier{K: cliK, Epochs: cliEpochs, Seed: seed}
	}
	cfg.Combiner = logreg.Config{Classes: social.NumLabels, Seed: seed + 101}
	return cfg, nil
}

// makeDataset generates the seeded synthetic network, runs the survey and
// hides the held-out labels, as `locec` does before its evaluation.
func makeDataset(users int, seed int64, holdout bool) (*social.Dataset, []uint64, error) {
	net, err := locec.Synthesize(locec.SynthConfig{Users: users, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	net.RevealSurvey(surveyFraction, seed+1)
	ds := net.Dataset
	if !holdout {
		return ds, nil, nil
	}
	_, test := eval.Split(ds.LabeledEdges(), 1-holdoutFraction, seed+2)
	for _, k := range test {
		delete(ds.Revealed, k)
	}
	return ds, test, nil
}

// datasetDigest hashes the graph and the learner-visible labels.
func datasetDigest(ds *social.Dataset) string {
	h := sha256.New()
	var b [8]byte
	ds.G.ForEachEdge(func(u, v graph.NodeID) {
		k := (graph.Edge{U: u, V: v}).Key()
		binary.LittleEndian.PutUint64(b[:], k)
		h.Write(b[:])
		h.Write([]byte{byte(ds.TrueLabels[k]), boolByte(ds.Revealed[k])})
	})
	return hex.EncodeToString(h.Sum(nil))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// storeDigest hashes an EdgeStore's keys, labels and probability bits.
func storeDigest(st *core.EdgeStore) string {
	h := sha256.New()
	var b [8]byte
	for i, k := range st.Keys() {
		binary.LittleEndian.PutUint64(b[:], k)
		h.Write(b[:])
		h.Write([]byte{byte(st.LabelAt(i))})
		for _, p := range st.ProbsAt(i) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// saveArtifact serializes a finished run as `locec train` does.
func saveArtifact(ds *social.Dataset, res *core.Result, seed int64) ([]byte, error) {
	ex, err := res.Export()
	if err != nil {
		return nil, err
	}
	art, err := artifact.New(ds.G, ex, seed)
	if err != nil {
		return nil, err
	}
	art.StampCreated(time.Now())
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// trainToArtifact is the training workloads' operation: dataset in hand
// to saved artifact bytes through the public API.
func trainToArtifact(ds *social.Dataset, cfg locec.Config) (*core.Result, []byte, error) {
	res, err := locec.Classify(ds, cfg)
	if err != nil {
		return nil, nil, err
	}
	data, err := saveArtifact(ds, res.Internal(), cfg.Seed)
	return res.Internal(), data, err
}

// heldOutF1 is macro-F1 on the held-out edges as the program's evaluator
// reports it, recomputed independently; a disagreement is a check failure.
func heldOutF1(ds *social.Dataset, res *core.Result, test []uint64) (float64, error) {
	truth := make([]social.Label, len(test))
	pred := make([]social.Label, len(test))
	for i, k := range test {
		e := graph.EdgeFromKey(k)
		truth[i] = ds.TrueLabels[k]
		l, ok := res.PredictedLabelOK(e.U, e.V)
		if !ok {
			return 0, fmt.Errorf("held-out edge {%d,%d} has no prediction", e.U, e.V)
		}
		pred[i] = l
	}
	got := eval.Evaluate(truth, pred).MacroF1()
	if want := macroF1(truth, pred); math.Abs(got-want) > 1e-12 {
		return got, fmt.Errorf("macro-F1 %.15f from the evaluator, %.15f recomputed", got, want)
	}
	return got, nil
}

// macroF1 averages per-class F1 over the predictable classes.
func macroF1(truth, pred []social.Label) float64 {
	var tp, fp, fn [social.NumLabels]float64
	for i, t := range truth {
		if !t.Valid() {
			continue
		}
		if p := pred[i]; p == t {
			tp[t]++
		} else {
			fn[t]++
			if p.Valid() {
				fp[p]++
			}
		}
	}
	sum := 0.0
	for c := 0; c < social.NumLabels; c++ {
		if d := 2*tp[c] + fp[c] + fn[c]; d > 0 {
			sum += 2 * tp[c] / d
		}
	}
	return sum / social.NumLabels
}

func runTrain(s trainShape, o options, r *report) error {
	var setups []float64
	var ds *social.Dataset
	var test []uint64
	firstDigest := ""
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if ds, test, err = makeDataset(s.size(o), o.seed, true); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if d := datasetDigest(ds); i == 0 {
			firstDigest = d
		} else if d != firstDigest {
			r.fail("seed %d generated two different datasets", o.seed)
		}
	}
	if o.trace {
		t, err := tracedTrain(s, ds, test, o, r)
		if err != nil {
			return err
		}
		if err := writeTour(o, r, ds, t); err != nil {
			return err
		}
		lr, err := readTour(o, r, t.data)
		setGen(r, lr)
		return err
	}
	r.set("setup_s", "s", median(setups))

	cfg, err := s.publicConfig(o.seed)
	if err != nil {
		return err
	}
	var times, peaks []float64
	var f1 float64
	digest := ""
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < minTrainReps || time.Now().Before(deadline); i++ {
		r.attempted++
		freshPeak() // each training starts from the same heap and its own peak
		t0 := time.Now()
		res, data, err := trainToArtifact(ds, cfg)
		d := time.Since(t0)
		peaks = append(peaks, peakRSSMB())
		if err != nil {
			r.failed++
			fmt.Fprintf(o.log, "perfbench: train: %v\n", err)
			continue
		}
		times = append(times, d.Seconds())
		if o.corrupt && i == 1 {
			res.Edges.ProbsAt(0)[0] += 1e-9
		}
		got := storeDigest(res.Edges)
		if digest == "" {
			digest = got
			// The saved bytes must restore the same predictions.
			back, err := locec.ReadArtifact(bytes.NewReader(data))
			if err != nil {
				r.fail("saved artifact does not load: %v", err)
			} else if storeDigest(back.Internal().Edges) != digest {
				r.fail("saved artifact restores different predictions")
			}
		} else if got != digest {
			r.fail("EdgeStore digest differs between trainings of seed %d", o.seed)
		}
		v, err := heldOutF1(ds, res, test)
		if err != nil {
			r.fail("%v", err)
		}
		if f1 != 0 && v != f1 {
			r.fail("macro-F1 changed between trainings: %v then %v", f1, v)
		}
		f1 = v
	}
	if len(times) == 0 {
		return fmt.Errorf("every training failed")
	}
	r.set("op_p50_ms", "ms", median(times)*1e3)
	r.set("peak_rss_mb", "MB", median(peaks))
	r.set("macro_f1", "ratio", f1)
	fmt.Fprintf(o.log, "perfbench: train: %d trainings, edgestore digest %s\n", len(times), digest)
	return nil
}

// trained is one finished training: the pipeline that ran it (nil when
// it ran through the public API), its result and the saved artifact.
type trained struct {
	p    *core.Pipeline
	res  *core.Result
	data []byte
}

// trainPublic trains through the public API, as `locec train` does.
func trainPublic(s trainShape, ds *social.Dataset, seed int64) (*trained, error) {
	cfg, err := s.publicConfig(seed)
	if err != nil {
		return nil, err
	}
	res, data, err := trainToArtifact(ds, cfg)
	if err != nil {
		return nil, err
	}
	return &trained{res: res, data: data}, nil
}

// tracedTrain runs Pipeline.Run untraced, then the same pipeline composed
// from the public stages with a span around each call, and requires both
// to produce the same EdgeStore. It reports the training layers' metrics
// and returns the traced pipeline, which the write tour mutates.
func tracedTrain(s trainShape, ds *social.Dataset, test []uint64, o options, r *report) (*trained, error) {
	refCfg, err := s.coreConfig(o.seed)
	if err != nil {
		return nil, err
	}
	r.attempted++
	ref, err := core.NewPipeline(refCfg).Run(ds)
	if err != nil {
		return nil, fmt.Errorf("pipeline run: %w", err)
	}

	cfg, err := s.coreConfig(o.seed)
	if err != nil {
		return nil, err
	}
	tr := r.tr
	p := core.NewPipeline(cfg)
	res := &core.Result{ClassifierName: cfg.Classifier.Name(), Classifier: cfg.Classifier}
	// The Phase II learner is gbdt for XGB and nn for CommCNN.
	fitName := "gbdt.fit"
	if s.variant == locec.VariantCNN {
		fitName = "nn.fit"
	}
	var trainComms int
	var stageErr error
	var ms0, ms1 runtime.MemStats
	r.attempted++
	root := tr.begin("pipeline", 0)
	divide := tr.do("community.divide", root, func() {
		res.Egos = core.Divide(ds, cfg.Division)
	})
	for _, er := range res.Egos {
		res.Communities = append(res.Communities, er.Comms...)
	}
	for _, c := range res.Communities {
		if c.TruthLabel().Valid() {
			trainComms++
		}
	}
	runtime.ReadMemStats(&ms0)
	fit := tr.do(fitName, root, func() { stageErr = p.TrainClassifier(ds, res.Communities) })
	runtime.ReadMemStats(&ms1)
	if stageErr != nil {
		return nil, stageErr
	}
	classify := tr.do("core.classify_communities", root, func() { p.ClassifyCommunities(ds, res.Communities) })
	combineID := tr.begin("core.combine", root)
	combineStart := time.Now()
	stageErr = p.Combine(ds, res)
	combine := tr.end(combineID)
	if stageErr != nil {
		return nil, stageErr
	}
	// logreg.Train runs inside Combine; its span comes from the
	// program's own phase timer.
	tr.add("logreg.train", combineID, combineStart, combineStart.Add(res.Times.CombinerTrain), "program-timer")
	tr.end(root)

	var data []byte
	save := tr.do("artifact.save", 0, func() { data, stageErr = saveArtifact(ds, res, o.seed) })
	if stageErr != nil {
		return nil, stageErr
	}

	if o.corrupt {
		res.Edges.ProbsAt(0)[0] += 1e-9
	}
	if a, b := storeDigest(res.Edges), storeDigest(ref.Edges); a != b {
		r.fail("traced stage composition digest %s != Pipeline.Run digest %s", a, b)
	}
	if _, err := heldOutF1(ds, res, test); err != nil {
		r.fail("%v", err)
	}

	sizes := res.CommunitySizes()
	r.set("community.divide_s", "s", divide.Seconds())
	r.set("community.communities", "count", float64(len(res.Communities)))
	r.set("community.mean_size", "nodes", mean(sizes))
	r.set("learner.fit_s", "s", fit.Seconds())
	r.set("learner.rows", "count", float64(trainComms))
	r.set("learner.alloc_mb", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	r.set("core.classify_communities_s", "s", classify.Seconds())
	labeled := len(ds.LabeledEdges())
	r.set("logreg.train_s", "s", res.Times.CombinerTrain.Seconds())
	r.set("logreg.rows", "count", float64(labeled))
	r.set("logreg.features", "count", float64(res.Combiner.Features))
	r.set("core.predict_edges_s", "s", (combine - res.Times.CombinerTrain).Seconds())
	r.set("core.edges", "count", float64(res.Edges.Len()))
	r.set("core.labeled_edges", "count", float64(labeled))
	gf := logregFlops(labeled, res.Edges.Len(), res.Combiner.Features, res.Combiner.Classes)
	if s.variant == locec.VariantCNN {
		gf += commCNNFlops(ds, trainComms, len(res.Communities))
	}
	r.set("tensor.gflop", "GFLOP-computed", gf/1e9)
	r.set("artifact.save_s", "s", save.Seconds())
	r.set("artifact.bytes", "bytes", float64(len(data)))
	return &trained{p: p, res: res, data: data}, nil
}

// logregEpochs is logreg's default epoch count, which the pipeline uses.
const logregEpochs = 100

// logregFlops computes the multiply-adds of combiner training (logits and
// gradient GEMMs per epoch) and of edge prediction from their shapes.
func logregFlops(rows, edges, features, classes int) float64 {
	w := float64((features + 1) * classes)
	return 4*logregEpochs*float64(rows)*w + 2*float64(edges)*w
}

// commCNNFlops computes CommCNN's forward cost from its layer shapes
// (internal/nn/commcnn.go) and counts training as three forward passes
// per sample per epoch plus one inference pass per community.
func commCNNFlops(ds *social.Dataset, trainSamples, communities int) float64 {
	k := float64(cliK)
	f := float64(int(social.NumInteractionDims) + ds.NumFeatureDims())
	c := float64(nn.DefaultCommCNNFilters)
	h := float64(nn.DefaultCommCNNHidden)
	k2, f2 := math.Floor(k/2), math.Floor(f/2)
	k4, f4 := math.Floor(k2/2), math.Floor(f2/2)
	fwd := 2*c*9*k*f + // sq1
		2*c*c*9*k*f + // sq2
		2*c*c*9*k2*f2 + // sq3
		2*c*f*k + 2*c*c*k + // wide branch
		2*c*k*f + 2*c*c*f + // long branch
		2*(c*k4*f4+2*c)*h + // fc1
		2*h*social.NumLabels // fc2
	return fwd * (3*float64(trainSamples)*cliEpochs + float64(communities))
}
