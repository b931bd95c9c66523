package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compareFiles prints, per (workload, metric) present in both result files,
// the two values, the gap as a share of the first, and the metric's bound. An
// end-to-end metric of b worse than a's by more than its bound is flagged
// "unresolved" — with two runs of the same code, the spread is wider than the
// bound can resolve — and makes the exit code 1. Per-layer metrics have no
// bound; exact counts that differ are flagged "differs" but do not fail.
func compareFiles(pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	defs := map[string]metricDef{}
	for _, d := range endToEnd {
		defs[d.Name] = d
	}
	for _, d := range perLayer {
		defs[d.Name] = d
	}
	breaches := 0
	var keys []string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		ra, rb := a[k], b[k]
		var names []string
		for n := range ra.Metrics {
			if _, ok := rb.Metrics[n]; ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			va, vb, d := ra.Metrics[n].Value, rb.Metrics[n].Value, defs[n]
			worse := vb - va
			if d.Better == "higher" {
				worse = va - vb
			}
			gap := ratio(worse, va)
			if va < 0 {
				gap = -gap
			}
			flag := ""
			switch {
			case d.Bound > 0 && gap > d.Bound:
				flag = "unresolved"
				breaches++
			case d.Bound == 0 && exactUnits[d.Unit] && va != vb:
				flag = "differs"
			}
			bound := "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.3f", d.Bound)
			}
			fmt.Printf("%-26s %-34s %14.6g %14.6g %-8s worse by %+8.4f bound %-6s %s\n",
				k, n, va, vb, d.Unit, gap, bound, flag)
		}
	}
	if breaches > 0 {
		fmt.Printf("%d end-to-end metric(s) beyond their bound\n", breaches)
		return 1
	}
	return 0
}

// exactUnits are the units of metrics that are counts, which two runs of the
// same code on the same seed should reproduce.
var exactUnits = map[string]bool{"count": true, "B": true}

// readResults loads a result file, keyed by workload and pass.
func readResults(path string) (map[string]*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]*result{}
	for _, r := range f.Results {
		key := r.Workload + " end-to-end"
		if r.Trace {
			key = r.Workload + " per-layer"
		}
		out[key] = r
	}
	return out, nil
}
