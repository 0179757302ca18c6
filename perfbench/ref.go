package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"hydra"
)

//go:embed refs/*.json
var refFiles embed.FS

// reference is a stored answer: per sampled state, the measure at each
// time, from a cold solve at a tighter tolerance than the workload's.
type reference struct {
	Workload string      `json:"workload"`
	Solver   string      `json:"solver"`
	Times    []float64   `json:"times"`
	States   []int       `json:"states"`
	Values   [][]float64 `json:"values"` // Values[i][k]: state States[i] at Times[k]
}

// refSample is roughly how many states a reference stores: every
// stride-th state from the initial one.
const refSample = 500

func loadReference(workload string) (*reference, error) {
	b, err := refFiles.ReadFile("refs/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", workload, err)
	}
	if len(ref.States) == 0 || len(ref.States) != len(ref.Values) {
		return nil, fmt.Errorf("reference %s: %d states, %d value rows", workload, len(ref.States), len(ref.Values))
	}
	return &ref, nil
}

// makeReference solves the batch workload cold at tight tolerances and
// writes its reference file to dir; copy it into perfbench/refs to
// store it.
func makeReference(workload string, cfg workloadConfig, dir string) error {
	m, err := hydra.LoadSpec(votingSpec(cfg.System))
	if err != nil {
		return err
	}
	opts := &hydra.Options{Workers: workers}
	opts.Solver.Epsilon = 1e-12
	opts.Solver.GSEpsilon = 1e-13
	opts.Solver.GSMaxIter = 100000
	if workload != "paper-sys0" {
		return fmt.Errorf("workload %s has no stored reference", workload)
	}
	spec, err := m.NewPassageSpec(workload, allVoted(m, cfg.System[0]), cfg.Times, false, opts)
	if err != nil {
		return err
	}
	vr, err := m.RunSpec(spec, nil, opts)
	if err != nil {
		return err
	}
	ref := reference{
		Workload: workload,
		Solver:   "cold (no warm start), Epsilon 1e-12, GSEpsilon 1e-13, Euler defaults",
		Times:    cfg.Times,
	}
	stride := max(1, m.NumStates()/refSample)
	for s := 0; s < m.NumStates(); s += stride {
		res, err := hydra.ReadRun(vr, []int{s}, []float64{1}, cfg.Times, opts)
		if err != nil {
			return err
		}
		ref.States = append(ref.States, s)
		ref.Values = append(ref.Values, res.Values)
	}
	b, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), b, 0o644)
}
