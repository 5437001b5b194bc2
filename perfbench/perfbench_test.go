package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"locec"
	"locec/internal/core"
	"locec/internal/graph"
)

func tinyOptions(t *testing.T, trace bool) options {
	return options{seed: 3, seconds: 1, trace: trace, tiny: true, workDir: t.TempDir(), log: io.Discard}
}

func sortedKeys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// manifest is the part of BENCHMARK.json the tests check against.
type manifest struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var doc manifest
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return doc
}

// Every workload emits every end-to-end metric untraced and every
// per-layer metric traced, each with the unit BENCHMARK.json declares.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	doc := readManifest(t)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json names workloads %v, the benchmark runs %v", names, workloadNames())
	}
	for _, name := range workloadNames() {
		for i, trace := range []bool{false, true} {
			res, tr, err := execute(name, workloads[name], tinyOptions(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d", name, trace, res.Correct, res.Attempted)
			}
			if trace != (tr != nil) || (trace && tr.len() == 0) {
				t.Errorf("%s trace=%v: tracer %v", name, trace, tr)
			}
			want := [][]struct{ Name, Unit string }{doc.EndToEnd, doc.PerLayer}[i]
			var wantNames []string
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
				if got, ok := res.Metrics[m.Name]; ok && got.Unit != m.Unit {
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json declares %q", name, m.Name, got.Unit, m.Unit)
				}
			}
			sort.Strings(wantNames)
			if got := sortedKeys(res.Metrics); strings.Join(got, ",") != strings.Join(wantNames, ",") {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", name, trace, got, wantNames)
			}
		}
	}
}

func TestCorruptedOutputsAreCaught(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			if trace && name != "train-xgb" {
				continue // the traced digest check is shared by both training workloads
			}
			o := tinyOptions(t, trace)
			o.corrupt = true
			res, _, err := execute(name, workloads[name], o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Correct {
				t.Errorf("%s trace=%v: corrupted run reported correct", name, trace)
			}
		}
	}
}

// A run whose every mutation the server rejects still prints a result:
// empty sample sets must not turn metrics into NaN, which JSON cannot
// carry, and the rejected count must match the server's.
func TestAllMutationsRejectedStillReports(t *testing.T) {
	for _, trace := range []bool{false, true} {
		o := tinyOptions(t, trace)
		o.conflict = true
		res, _, err := execute("mutate", runMutate, o)
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		batches := int(mutRate * o.seconds)
		if !res.Correct || res.Failed < batches {
			t.Errorf("trace=%v: correct=%v failed=%d, want correct with every one of %d batches failed",
				trace, res.Correct, res.Failed, batches)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Errorf("trace=%v: result does not encode: %v", trace, err)
		}
	}
}

func TestCheckBodiesCatchWrongAnswers(t *testing.T) {
	st, err := core.NewEdgeStore([]uint64{(graph.Edge{U: 1, V: 2}).Key()}, []locec.Label{locec.Family},
		[]float64{0.25, 0.5, 0.25}, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := [2]uint32{1, 2}
	good := `{"u":1,"v":2,"found":true,"label":"Family Members","probabilities":{"colleague":0.25,"family":0.5,"schoolmate":0.25}}`
	if err := checkEdgeBody(st, e, []byte(good)); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	for _, bad := range []string{
		strings.Replace(good, "0.5", "0.5000000000000001", 1),
		strings.Replace(good, "Family Members", "Colleague", 1),
		strings.Replace(good, `"v":2`, `"v":3`, 1),
		`{"u":1,"v":2,"found":false}`,
		`not json`,
	} {
		if checkEdgeBody(st, e, []byte(bad)) == nil {
			t.Errorf("wrong edge answer accepted: %s", bad)
		}
	}
	batch := [][2]uint32{e}
	if err := checkClassifyBody(st, batch, []byte(`{"results":[`+good+`],"partial":false}`)); err != nil {
		t.Fatalf("good classify answer rejected: %v", err)
	}
	for _, bad := range []string{
		`{"results":[` + good + `],"partial":true}`,
		`{"results":[null],"partial":false}`,
		`{"results":[],"partial":false}`,
	} {
		if checkClassifyBody(st, batch, []byte(bad)) == nil {
			t.Errorf("wrong classify answer accepted: %s", bad)
		}
	}
}

// The traced run rebuilds the pipeline from core stages; its config must
// match what locec.Classify builds, or it would trace another pipeline.
func TestCoreConfigMatchesPublicPipeline(t *testing.T) {
	for _, s := range []trainShape{trainXGB, trainCNN} {
		ds, _, err := makeDataset(s.tinyUsers, 5, true)
		if err != nil {
			t.Fatal(err)
		}
		pub, err := s.publicConfig(5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := locec.Classify(ds, pub)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.coreConfig(5)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.NewPipeline(cfg).Run(ds)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := storeDigest(res.Internal().Edges), storeDigest(ref.Edges); a != b {
			t.Errorf("%s: locec.Classify digest %s, core pipeline digest %s", s.detector, a, b)
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "train-xgb", "--trace", "2"},
		{"--workload", "train-xgb", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
