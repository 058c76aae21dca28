package models

import (
	"fmt"
	"sort"
	"sync"

	"respect/internal/graph"
)

// generators maps canonical model names to their graph constructors. Names
// follow the paper's spelling in Table I and Figure 5.
var generators = map[string]func() (*graph.Graph, error){
	"Xception":          xception,
	"ResNet50":          func() (*graph.Graph, error) { return resNetV1("ResNet50", 50) },
	"ResNet101":         func() (*graph.Graph, error) { return resNetV1("ResNet101", 101) },
	"ResNet152":         func() (*graph.Graph, error) { return resNetV1("ResNet152", 152) },
	"ResNet50v2":        func() (*graph.Graph, error) { return resNetV2("ResNet50v2", 50) },
	"ResNet101v2":       func() (*graph.Graph, error) { return resNetV2("ResNet101v2", 101) },
	"ResNet152v2":       func() (*graph.Graph, error) { return resNetV2("ResNet152v2", 152) },
	"DenseNet121":       func() (*graph.Graph, error) { return denseNet("DenseNet121", 121) },
	"DenseNet169":       func() (*graph.Graph, error) { return denseNet("DenseNet169", 169) },
	"DenseNet201":       func() (*graph.Graph, error) { return denseNet("DenseNet201", 201) },
	"Inception_v3":      inceptionV3,
	"InceptionResNetv2": inceptionResNetV2,
	// Extension models beyond the paper's evaluation set.
	"VGG16":     vgg16,
	"MobileNet": mobileNetV1,
}

// zoo is what Load serves: generators, each memoized. A model's graph is
// a property of the model, so its generator runs once, on the first Load
// of the name (concurrent first loads wait for that one build), and
// every later Load is a lookup.
var zoo = memoize(generators)

func memoize(gens map[string]func() (*graph.Graph, error)) map[string]func() (*graph.Graph, error) {
	memo := make(map[string]func() (*graph.Graph, error), len(gens))
	for name, gen := range gens {
		memo[name] = sync.OnceValues(gen)
	}
	return memo
}

// TableI holds the paper's Table I statistics for the ten inference-runtime
// benchmark models; construction tests assert these exactly.
var TableI = map[string]graph.Stats{
	"Xception":          {V: 134, Deg: 2, Depth: 125},
	"ResNet50":          {V: 177, Deg: 2, Depth: 168},
	"ResNet101":         {V: 347, Deg: 2, Depth: 338},
	"ResNet152":         {V: 517, Deg: 2, Depth: 508},
	"DenseNet121":       {V: 429, Deg: 2, Depth: 428},
	"ResNet101v2":       {V: 379, Deg: 2, Depth: 371},
	"ResNet152v2":       {V: 566, Deg: 2, Depth: 558},
	"DenseNet169":       {V: 597, Deg: 2, Depth: 596},
	"DenseNet201":       {V: 709, Deg: 2, Depth: 708},
	"InceptionResNetv2": {V: 782, Deg: 4, Depth: 571},
}

// Names returns all available model names, sorted.
func Names() []string {
	out := make([]string, 0, len(generators))
	for name := range generators {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TableINames returns the ten Table I benchmark models in the paper's
// row order.
func TableINames() []string {
	return []string{
		"Xception", "ResNet50", "ResNet101", "ResNet152",
		"DenseNet121", "ResNet101v2", "ResNet152v2", "DenseNet169",
		"DenseNet201", "InceptionResNetv2",
	}
}

// Figure5Names returns the twelve models of the gap-to-optimal study in
// the paper's plotting order.
func Figure5Names() []string {
	return []string{
		"DenseNet121", "DenseNet169", "DenseNet201",
		"ResNet50", "ResNet101", "ResNet152",
		"ResNet50v2", "ResNet101v2", "InceptionResNetv2",
		"ResNet152v2", "Inception_v3", "Xception",
	}
}

// LoadMany loads several zoo graphs, failing on the first unknown name.
// Callers that need the whole zoo pass Names() expanded. The graphs are
// shared and read-only, as Load's are.
func LoadMany(names ...string) ([]*graph.Graph, error) {
	out := make([]*graph.Graph, len(names))
	for i, name := range names {
		g, err := Load(name)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}

// Load returns the named model's computational graph. The graph is
// shared, read-only: every Load of a name returns the same built
// *graph.Graph, so a caller must not assign its Name, and must Clone it
// to change anything else (AddNode and AddEdge panic on it).
func Load(name string) (*graph.Graph, error) {
	load, ok := zoo[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown model %q (have %v)", name, Names())
	}
	return load()
}

// MustLoad is Load that panics on error; generators are covered by tests.
func MustLoad(name string) *graph.Graph {
	g, err := Load(name)
	if err != nil {
		panic(err)
	}
	return g
}
