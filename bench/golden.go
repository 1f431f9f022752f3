package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// goldenSeed is the seed the goldens were recorded at; runs at other
// seeds or scales check outputs only for repeatability.
const goldenSeed = 42

//go:embed testdata/golden.json
var goldenJSON []byte

// goldens maps workload → op name → simulated output, recorded at
// goldenSeed and full scale.
type goldens map[string]map[string]string

func loadGoldens() (goldens, error) {
	g := goldens{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

// goldenFor returns the workload's goldens when they apply to this
// run, or nil.
func goldenFor(name string, sc scale, seed uint64) (map[string]string, error) {
	if seed != goldenSeed || sc != fullScale {
		return nil, nil
	}
	g, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	return g[name], nil
}

// updateGoldens re-records the goldens of the named workloads from one
// pass each at goldenSeed and writes the file to path. A change that
// alters simulated outputs on purpose re-records them as its own
// benchmark change.
func updateGoldens(names []string, path string) error {
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	for _, name := range names {
		w, _ := workloadByName(name)
		inst, err := w.setup(fullScale, goldenSeed)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res, err := inst.pass()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		g[name] = map[string]string{}
		for _, o := range res.ops {
			g[name][o.name] = o.out
		}
		fmt.Fprintf(os.Stderr, "recorded %d %s goldens\n", len(res.ops), name)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false) // keep op names such as "qty<24" readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(g); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
