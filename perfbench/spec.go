package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark checks itself
// against: the metric names and units it must print.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("benchmark spec %s: %w", path, err)
	}
	return &s, nil
}

// matchSpec checks that the printed metrics are exactly the listed ones,
// with the listed units.
func matchSpec(got map[string]metric, want []specMetric) error {
	var problems []string
	listed := map[string]bool{}
	for _, w := range want {
		listed[w.Name] = true
		m, ok := got[w.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+w.Name)
		case m.Unit != w.Unit:
			problems = append(problems, fmt.Sprintf("%s in %q, listed in %q", w.Name, m.Unit, w.Unit))
		}
	}
	for name := range got {
		if !listed[name] {
			problems = append(problems, "unlisted "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}
