package main

// Repeat mode runs one workload over several seeds and summarizes each
// metric; compare mode judges two such sets against the end-to-end
// bounds of BENCHMARK.json, the way a parent and a change are judged.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// runSet is the file -repeat writes and -compare reads.
type runSet struct {
	Workload string    `json:"workload"`
	Seeds    []int64   `json:"seeds"`
	Runs     []*result `json:"runs"`
}

func repeatRuns(o *options, runner func(*options) (*result, error), n int, out string) int {
	set := runSet{Workload: o.workload}
	first := o.seed
	for i := 0; i < n; i++ {
		o.seed = first + int64(i)
		res, err := runner(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %v\n", o.workload, o.seed, err)
			return 1
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		set.Seeds = append(set.Seeds, o.seed)
		set.Runs = append(set.Runs, res)
	}
	printSummary(set)
	if out != "" {
		raw, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(out, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
	}
	return 0
}

// quartiles are the first, second and third quartiles of xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 1, 4), quantile(xs, 2, 4), quantile(xs, 3, 4)
}

// values collects one metric across a set's runs.
func (s runSet) values(name string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// failedShare is the set's failed operations over attempted ones.
func (s runSet) failedShare() (failed, attempted int) {
	for _, r := range s.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// printSummary prints each metric's median, quartiles and spread (the
// interquartile range as a share of the median) to stderr.
func printSummary(s runSet) {
	var names []string
	for name := range s.Runs[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s over %d runs, seeds %v\n", s.Workload, len(s.Runs), s.Seeds)
	fmt.Fprintf(os.Stderr, "  %-36s %14s %14s %14s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, name := range names {
		xs := s.values(name)
		q1, q2, q3 := quartiles(xs)
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %14.4f %14.4f %8.4f %s\n",
			name, q1, q2, q3, ratio(q3-q1, q2), s.Runs[0].Metrics[name].Unit)
	}
	failed, attempted := s.failedShare()
	correct := true
	for _, r := range s.Runs {
		correct = correct && r.Correct
	}
	fmt.Fprintf(os.Stderr, "  failed %d of %d attempted; all correct: %v\n", failed, attempted, correct)
}

func loadJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareSets checks sets A (the reference) and B: each end-to-end
// metric's spread within its bound in both sets, B's median no worse
// than A's by more than the bound, and the same share of failed
// operations. It returns 0 when every check holds.
func compareSets(aPath, bPath string) int {
	var spec benchSpec
	var a, b runSet
	for _, l := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {aPath, &a}, {bPath, &b}} {
		if err := loadJSON(l.path, l.v); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 2
		}
	}
	ok := true
	fmt.Printf("%s: %s vs %s\n", a.Workload, aPath, bPath)
	fmt.Printf("  %-16s %8s %12s %8s %12s %8s %9s %s\n", "metric", "bound", "median A", "spread", "median B", "spread", "worse by", "verdict")
	for _, m := range spec.EndToEnd {
		xa, xb := a.values(m.Name), b.values(m.Name)
		if len(xa) < 2 || len(xb) < 2 {
			fmt.Printf("  %-16s missing from a set\n", m.Name)
			ok = false
			continue
		}
		qa1, ma, qa3 := quartiles(xa)
		qb1, mb, qb3 := quartiles(xb)
		sa, sb := ratio(qa3-qa1, ma), ratio(qb3-qb1, mb)
		worse := ratio(mb-ma, ma)
		if m.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if sa > m.Bound || sb > m.Bound {
			verdict = "spread over bound"
		}
		if worse > m.Bound {
			verdict = "worse than bound"
		}
		if verdict != "ok" {
			ok = false
		}
		fmt.Printf("  %-16s %8.3f %12.4f %8.4f %12.4f %8.4f %9.4f %s\n", m.Name, m.Bound, ma, sa, mb, sb, worse, verdict)
	}
	fa, na := a.failedShare()
	fb, nb := b.failedShare()
	if fa*nb != fb*na {
		fmt.Printf("  failed share differs: %d/%d vs %d/%d\n", fa, na, fb, nb)
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}
