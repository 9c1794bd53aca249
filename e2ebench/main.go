// Command e2ebench drives RENUVER through the surfaces its users touch
// (the HTTP service and the one-shot CLI) and prints end-to-end metrics,
// or with --trace 1 a per-layer breakdown, as one JSON line. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// reconcileTolerancePct is the share of the measured request (or
// invocation) time the traced run may leave unattributed to a layer.
const reconcileTolerancePct = 10.0

// reconciled states whether an unattributed share is within the
// tolerance.
func reconciled(unattributedPct float64) string {
	if math.Abs(unattributedPct) <= reconcileTolerancePct {
		return fmt.Sprintf("reconciles within the %.0f%% tolerance", reconcileTolerancePct)
	}
	return fmt.Sprintf("DOES NOT reconcile within the %.0f%% tolerance", reconcileTolerancePct)
}

// tracedRounds is the fixed number of rounds each pass of a traced
// restaurant run makes, so its work counts repeat exactly.
const tracedRounds = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	rounds   int // > 0: fixed work, this many timed rounds
	trace    bool
	renuver  string
	work     string
}

// more reports whether a run that has done rounds timed rounds in
// elapsed should start another: whole rounds until the time is up, or
// exactly o.rounds of them.
func (o *options) more(rounds int, elapsed time.Duration) bool {
	if o.rounds > 0 {
		return rounds < o.rounds
	}
	return rounds == 0 || elapsed.Seconds() < o.seconds
}

func (o *options) traceRounds() int {
	if o.rounds > 0 {
		return o.rounds
	}
	return tracedRounds
}

// note prints a human-readable line to stderr; stdout carries only the
// result lines.
func (o *options) note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*options) (*result, error){
	"serve-restaurant":  func(o *options) (*result, error) { return runServe(o, false) },
	"live-restaurant":   func(o *options) (*result, error) { return runServe(o, true) },
	"offline-physician": runOffline,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o options
	var trace, repeat int
	var out, compare string
	fs.StringVar(&o.workload, "workload", "", "workload: serve-restaurant, live-restaurant, offline-physician")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (split, nulled cells, deltas, injection)")
	fs.Float64Var(&o.seconds, "seconds", 12, "timed length of a run; whole rounds until it is reached")
	fs.IntVar(&o.rounds, "rounds", 0, "fixed work: exactly this many timed rounds (overrides -seconds)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&o.renuver, "renuver", "", "path to the renuver binary (run.sh builds it)")
	fs.StringVar(&o.work, "work", "", "directory for generated inputs and artifacts")
	fs.IntVar(&repeat, "repeat", 0, "run the workload this many times, seeds seed..seed+N-1, and print quartiles")
	fs.StringVar(&out, "out", "", "with -repeat: write the runs to this JSON file")
	fs.StringVar(&compare, "compare", "", "A.json,B.json: compare two -repeat sets against the bounds in "+specPath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if compare != "" {
		a, b, ok := strings.Cut(compare, ",")
		if !ok {
			fmt.Fprintln(os.Stderr, "e2ebench: -compare takes A.json,B.json")
			return 2
		}
		return compareSets(a, b)
	}
	runner, ok := workloads[o.workload]
	if !ok || o.renuver == "" || o.work == "" {
		fmt.Fprintf(os.Stderr, "e2ebench: need -renuver, -work and -workload (one of %s)\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if repeat > 0 {
		return repeatRuns(&o, runner, repeat, out)
	}
	res, err := runner(&o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// specPath is the benchmark definition, read from the repository root:
// its per_layer list names the metrics a traced run prints, and its
// end_to_end bounds judge two sets of runs.
const specPath = "BENCHMARK.json"

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the driver reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// layerMetrics returns every per-layer metric of BENCHMARK.json with
// its unit, taking the values from lm; a layer the workload does not
// pass through reads 0 (no deltas on serve-restaurant, no HTTP,
// artifact or delta on offline-physician). A value lm holds under a
// name the list lacks is an error, so the two cannot drift apart.
func (o *options) layerMetrics(lm map[string]float64) (map[string]metric, error) {
	var spec benchSpec
	if err := loadJSON(specPath, &spec); err != nil {
		return nil, err
	}
	out := make(map[string]metric, len(spec.PerLayer))
	for _, l := range spec.PerLayer {
		out[l.Name] = metric{lm[l.Name], l.Unit}
	}
	for name := range lm {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s is not in %s", name, specPath)
		}
	}
	return out, nil
}

// withoutGC runs f with the benchmark's own garbage collector stopped,
// after a full collection, so that on a host of few cores the client's
// collection of its checking state never competes with the server
// inside a timed round. A round allocates little more than the
// responses it reads.
func withoutGC(f func()) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	f()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 1, 2) }

// quantile is the i-th of the n-quantiles of xs as Python's
// statistics.quantiles(xs, n=n) computes them (its default, exclusive
// method), which is how run-to-run spread is judged; quantile(xs, 1, 2)
// is the median and quantile(xs, 9, 10) the 90th percentile.
func quantile(xs []float64, i, n int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	m := len(s) + 1
	j := min(max(i*m/n, 1), len(s)-1)
	delta := float64(i*m - j*n)
	return (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
}
