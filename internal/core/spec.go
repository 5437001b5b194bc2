package core

import (
	"flag"
	"fmt"
	"strings"

	"locec/internal/gbdt"
	"locec/internal/logreg"
	"locec/internal/social"
)

// Variant selects the Phase II community classifier.
type Variant int

const (
	// VariantCNN is LoCEC-CNN, the paper's best performer (CommCNN).
	VariantCNN Variant = iota
	// VariantXGB is LoCEC-XGB, the gradient-boosted runner-up.
	VariantXGB
)

// String returns the classifier's display name ("LoCEC-CNN" or
// "LoCEC-XGB"), the name a trained Result reports.
func (v Variant) String() string {
	if v == VariantXGB {
		return "LoCEC-XGB"
	}
	return "LoCEC-CNN"
}

// Name returns the registry name ("cnn" or "xgb") that CLIs and the
// serving config accept.
func (v Variant) Name() string {
	if v == VariantXGB {
		return "xgb"
	}
	return "cnn"
}

// ParseVariant resolves a registry name ("" selects the paper's CNN).
func ParseVariant(name string) (Variant, error) {
	switch name {
	case "", "cnn":
		return VariantCNN, nil
	case "xgb":
		return VariantXGB, nil
	default:
		return 0, fmt.Errorf("core: unknown variant %q (want cnn or xgb)", name)
	}
}

// MarshalText implements encoding.TextMarshaler with the registry name.
func (v Variant) MarshalText() ([]byte, error) { return []byte(v.Name()), nil }

// UnmarshalText implements encoding.TextUnmarshaler via ParseVariant.
func (v *Variant) UnmarshalText(b []byte) error {
	p, err := ParseVariant(string(b))
	if err == nil {
		*v = p
	}
	return err
}

// MarshalText implements encoding.TextMarshaler with the registry name.
func (k DetectorKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler via ParseDetector.
func (k *DetectorKind) UnmarshalText(b []byte) error {
	p, err := ParseDetector(string(b))
	if err == nil {
		*k = p
	}
	return err
}

// Spec is the user-facing description of a pipeline — the one mapping the
// public package, the serving layer and the CLIs share. Its zero value plus
// a Seed is the paper's configuration (Girvan–Newman, CommCNN, k = 20);
// zero numeric fields take the engine defaults.
type Spec struct {
	// Variant picks LoCEC-CNN (default) or LoCEC-XGB.
	Variant Variant
	// Detector swaps the Phase I algorithm (default Girvan–Newman, the
	// paper's choice; the alternatives are ablations).
	Detector DetectorKind
	// K is the community feature-matrix row budget (paper: 20).
	K int
	// Epochs / Filters / Hidden tune CommCNN training (CNN variant).
	Epochs, Filters, Hidden int
	// Rounds / MaxDepth tune the boosted trees (XGB variant).
	Rounds, MaxDepth int
	// Workers bounds the parallelism of division and Phase II training
	// (0 = GOMAXPROCS). Division and GBDT results are identical for every
	// value; CommCNN training is reproducible per value.
	Workers int
	// GNPatience stops Girvan–Newman early after this many fruitless
	// rounds (0 = exact; larger ego networks benefit from ~20).
	GNPatience int
	// AgreementRule replaces the Phase III logistic regression with the
	// naive both-sides-agree rule (ablation; not the paper's combiner).
	AgreementRule bool
	// Seed makes the run reproducible.
	Seed int64
}

// Config builds the pipeline configuration: a fresh Phase II classifier
// for the variant, the workers for division and training, and the
// combiner seeded at Seed+101.
func (s Spec) Config() Config {
	cfg := Config{
		Division: DivisionConfig{
			Detector:   s.Detector,
			GNPatience: s.GNPatience,
			Workers:    s.Workers,
			Seed:       s.Seed,
		},
		Combiner:      logreg.Config{Classes: social.NumLabels, Seed: s.Seed + 101},
		AgreementRule: s.AgreementRule,
		Seed:          s.Seed,
	}
	if s.Variant == VariantXGB {
		cfg.Classifier = &XGBClassifier{
			Config:  gbdt.Config{Rounds: s.Rounds, MaxDepth: s.MaxDepth, Seed: s.Seed},
			Seed:    s.Seed,
			Workers: s.Workers,
		}
	} else {
		cfg.Classifier = &CNNClassifier{
			K: s.K, Filters: s.Filters, Hidden: s.Hidden,
			Epochs: s.Epochs, Workers: s.Workers, Seed: s.Seed,
		}
	}
	return cfg
}

// BindFlags registers -variant, -detector, -k, -epochs and -workers on fs,
// defaulting to s's current values. A variant or detector name that does
// not parse makes fs.Parse fail with a usage error.
func (s *Spec) BindFlags(fs *flag.FlagSet) {
	fs.TextVar(&s.Variant, "variant", s.Variant, "community classifier `name`: cnn or xgb")
	fs.TextVar(&s.Detector, "detector", s.Detector, "Phase I detector `name`: "+strings.Join(DetectorNames(), ", "))
	fs.IntVar(&s.K, "k", s.K, "feature matrix rows (CommCNN; 0 = 20)")
	fs.IntVar(&s.Epochs, "epochs", s.Epochs, "CommCNN training epochs (0 = 12)")
	fs.IntVar(&s.Workers, "workers", s.Workers, "worker goroutines for division and training (0 = GOMAXPROCS)")
}
