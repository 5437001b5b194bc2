package core

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"locec/internal/gbdt"
	"locec/internal/logreg"
	"locec/internal/social"
)

func bindSpec(s *Spec) *flag.FlagSet {
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.BindFlags(fs)
	return fs
}

func TestSpecFlagDefaultsAreZeroSpec(t *testing.T) {
	var s Spec
	if err := bindSpec(&s).Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s != (Spec{}) {
		t.Fatalf("defaults = %+v, want the zero Spec", s)
	}
}

func TestSpecFlagsParse(t *testing.T) {
	s := Spec{K: 16, Epochs: 8}
	fs := bindSpec(&s)
	if err := fs.Parse([]string{"-variant", "xgb", "-detector", "clauset", "-workers", "3"}); err != nil {
		t.Fatal(err)
	}
	want := Spec{Variant: VariantXGB, Detector: DetectorClauset, K: 16, Epochs: 8, Workers: 3}
	if s != want {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
}

// A mistyped name must be a usage error, not a silent fallback to the
// default classifier or detector.
func TestSpecFlagsRejectUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-variant", "xbg"},
		{"-variant", "LoCEC-XGB"},
		{"-detector", "louvian"},
	} {
		var s Spec
		if err := bindSpec(&s).Parse(args); err == nil {
			t.Errorf("%v accepted (spec %+v)", args, s)
		}
	}
}

func TestSpecConfig(t *testing.T) {
	xgb := Spec{Variant: VariantXGB, Detector: DetectorLemon, Rounds: 5, MaxDepth: 3,
		Workers: 2, GNPatience: 4, AgreementRule: true, Seed: 9}.Config()
	want := Config{
		Division: DivisionConfig{Detector: DetectorLemon, GNPatience: 4, Workers: 2, Seed: 9},
		Classifier: &XGBClassifier{
			Config: gbdt.Config{Rounds: 5, MaxDepth: 3, Seed: 9}, Seed: 9, Workers: 2,
		},
		Combiner:      logreg.Config{Classes: social.NumLabels, Seed: 110},
		AgreementRule: true,
		Seed:          9,
	}
	if !reflect.DeepEqual(xgb, want) {
		t.Fatalf("xgb config = %+v, want %+v", xgb, want)
	}
	cnn := Spec{K: 16, Epochs: 8, Filters: 4, Hidden: 6, Workers: 2, Seed: 9}.Config()
	wantCNN := &CNNClassifier{K: 16, Filters: 4, Hidden: 6, Epochs: 8, Workers: 2, Seed: 9}
	if !reflect.DeepEqual(cnn.Classifier, wantCNN) {
		t.Fatalf("cnn classifier = %+v, want %+v", cnn.Classifier, wantCNN)
	}
	// Each call builds a fresh classifier: pipelines never share a model.
	s := Spec{}
	if s.Config().Classifier == s.Config().Classifier {
		t.Fatal("Config reused a classifier instance")
	}
}

func TestVariantNames(t *testing.T) {
	for _, v := range []Variant{VariantCNN, VariantXGB} {
		got, err := ParseVariant(v.Name())
		if err != nil || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v", v.Name(), got, err)
		}
	}
	if v, err := ParseVariant(""); err != nil || v != VariantCNN {
		t.Errorf(`ParseVariant("") = %v, %v; want the CNN default`, v, err)
	}
	if VariantXGB.String() != "LoCEC-XGB" || VariantCNN.String() != "LoCEC-CNN" {
		t.Error("display names changed")
	}
}
