// Command bench is the repository's benchmark: five workloads over the codec
// (jp2k and the layers under it) and the tile server (serve), each checked for
// correctness, reported as end-to-end metrics (-trace 0) or as per-layer
// metrics from a run traced from the outside (-trace 1). See README.md.
//
//	go run . [-workload name] [-seed n] [-seconds s] [-trace 0|1]
//	go run . -compare a.json b.json
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics, for the (last) workload run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: all five)")
	seed := fs.Uint64("seed", 1, "seed of the generated corpus and request lists")
	seconds := fs.Float64("seconds", runSeconds, "how long the timed phase of a workload measures")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	scale := fs.Float64("scale", 1, "below 0.25 selects the small smoke-test corpus and scales -seconds and the request lists")
	outDir := fs.String("out", "", "output directory (default bench/out, or out inside the bench directory)")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables")
	calib := fs.Bool("calibrate", false, "print the closed-loop capacity of the serve-zipf trace and its latencies at the frozen rate")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		os.Stdout.Write(manifest())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	cfg := config{
		seed: *seed, seconds: *seconds * *scale, trace: *trace == 1,
		P: min(runtime.NumCPU(), 4), g: fullGeometry, cycleScale: min(*scale, 1),
	}
	if *scale < 0.25 {
		cfg.g = smokeGeometry
	}
	runtime.GOMAXPROCS(cfg.P)
	cfg.outDir = *outDir
	if cfg.outDir == "" {
		cfg.outDir = "out"
		if st, err := os.Stat("bench"); err == nil && st.IsDir() {
			cfg.outDir = filepath.Join("bench", "out")
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *calib {
		if err := calibrate(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	}
	results, code := runAll(names, cfg)
	if err := writeResults(filepath.Join(cfg.outDir, "result.json"), results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}

// runAll runs the named workloads in order, printing each one's table and,
// last, its result line.
func runAll(names []string, cfg config) ([]*result, int) {
	var results []*result
	code := 0
	for _, name := range names {
		res, err := runWorkload(name, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return results, 1
		}
		results = append(results, res)
		printTable(res)
		if !res.Correct {
			code = 1
		}
		printResultLine(res)
	}
	return results, code
}

// printTable prints one line per metric: workload, name, value, unit and the
// number of samples behind the value.
func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Printf("%-13s %-34s %16.6g %-8s n=%d\n", res.Workload, n, v.Value, v.Unit, v.N)
	}
	for _, msg := range res.Failures {
		fmt.Printf("%-13s FAILED %s\n", res.Workload, msg)
	}
}

// printResultLine prints the line the driver reads.
func printResultLine(res *result) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for n, v := range res.Metrics {
		line.Metrics[n] = mv{v.Value, v.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Println(string(out))
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Results []*result `json:"results"`
}

func writeResults(path string, results []*result) error {
	out, err := json.MarshalIndent(resultFile{results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
