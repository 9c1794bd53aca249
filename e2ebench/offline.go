package main

// The offline-physician workload: the paper's protocol through the
// one-shot CLI. Each invocation discovers Σ on a Physician relation
// with MCAR-injected cells, imputes it, and writes the result, which
// the benchmark scores against the ground truth.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	renuver "repro"
)

const (
	physicianTuples    = 100
	physicianThreshold = 15 // discovery threshold limit
	physicianFolds     = 20 // injected copies per round, each missing 5% of the cells
	offlineSetupReps   = 7
)

// offlineWork is one seed's set of injected copies.
type offlineWork struct {
	t     *table
	dirty [][][]string // per injected copy
	paths []string
	clean string // the relation without injected cells
	cells int    // missing cells per round
}

// offlineSetup generates the relation and writes every injected copy,
// and the relation itself.
func offlineSetup(o *options, dir string) (*offlineWork, error) {
	t, err := generate("physician", physicianTuples)
	if err != nil {
		return nil, err
	}
	w := &offlineWork{t: t}
	var folds [][][]string
	folds, w.cells = maskFolds(rand.New(rand.NewSource(o.seed)), t.rows, physicianFolds)
	for v, rows := range folds {
		path := filepath.Join(dir, fmt.Sprintf("dirty%d.csv", v))
		if err := writeCSV(path, t.attrs, rows); err != nil {
			return nil, err
		}
		w.dirty = append(w.dirty, rows)
		w.paths = append(w.paths, path)
	}
	w.clean = filepath.Join(dir, "clean.csv")
	return w, writeCSV(w.clean, t.attrs, t.rows)
}

// invocation is one CLI run as the benchmark saw it.
type invocation struct {
	latency time.Duration
	peakMB  float64
	stats   renuver.Stats
}

// invoke runs the CLI on the relation at path, whose cells are dirty,
// and checks its output.
func (w *offlineWork) invoke(o *options, path string, dirty [][]string, rc *roundCheck) (invocation, error) {
	out := path + ".out.csv"
	sigmaPath := path + ".rfd"
	cmd := exec.Command(o.renuver, "-in", path, "-out", out,
		"-threshold", strconv.Itoa(physicianThreshold), "-stats", "-save-rfds", sigmaPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	inv := invocation{latency: time.Since(start), peakMB: peakRSSMB(cmd)}
	if err != nil {
		rc.failed++
		o.note("renuver on %s: %v\n%s", path, err, stderr.Bytes())
		return inv, nil
	}
	// -stats prints the run's Stats as one indented JSON object after
	// the progress lines.
	raw := stderr.Bytes()
	if i := bytes.Index(raw, []byte("\n{")); i >= 0 {
		raw = raw[i+1:]
	}
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&inv.stats); err != nil {
		return inv, fmt.Errorf("parse -stats output: %w", err)
	}
	text, err := os.ReadFile(sigmaPath)
	if err != nil {
		return inv, err
	}
	sigma, err := parseRules(string(text), w.t.attrs)
	if err != nil {
		return inv, err
	}
	rows, err := readCSV(out, w.t.attrs)
	if err != nil {
		return inv, err
	}
	if len(rows) != len(dirty) {
		rc.failed++
		return inv, nil
	}
	ck := newChecker(w.t, sigma)
	ix := ck.index(rows)
	val := newValidator(physicianRules)
	for r, in := range dirty {
		if err := ck.checkTuple(in, rows[r], ix, r); err != nil && rc.bad == nil {
			rc.bad = fmt.Errorf("%s row %d: %w", filepath.Base(path), r, err)
		}
		rc.score.add(val, w.t.attrs, in, rows[r], w.t.rows[r])
	}
	return inv, nil
}

func runOffline(o *options) (*result, error) {
	dir := filepath.Join(o.work, o.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Set-up is everything before the first timed invocation: writing
	// the inputs and a first, untimed run of the CLI (checked like every
	// other), since a pipeline pays that once before its steady state.
	// That run is on the relation without injected cells, so the set-up
	// does the same work for every seed: on an injected copy its cost
	// would follow which cells the seed put in that copy.
	var w *offlineWork
	var rc roundCheck
	var setups []float64
	reps := offlineSetupReps
	if o.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		start := time.Now()
		var err error
		if w, err = offlineSetup(o, dir); err != nil {
			return nil, err
		}
		var first roundCheck
		if _, err := w.invoke(o, w.clean, w.t.rows, &first); err != nil {
			return nil, err
		}
		if first.failed > 0 {
			return nil, fmt.Errorf("first invocation failed")
		}
		setups = append(setups, time.Since(start).Seconds())
		if rc.bad == nil {
			rc.bad = first.bad
		}
	}
	if o.trace {
		return traceOffline(o, w, &rc)
	}
	// Each copy's latency is the median over the rounds, so a burst
	// of contention from outside the benchmark moves one invocation, not
	// the run.
	lat := make([][]float64, len(w.paths))
	var elapsed time.Duration
	peak := 0.0
	rounds, attempted := 0, 0
	for o.more(rounds, elapsed) {
		for v := range w.paths {
			inv, err := w.invoke(o, w.paths[v], w.dirty[v], &rc)
			if err != nil {
				return nil, err
			}
			attempted++
			elapsed += inv.latency
			lat[v] = append(lat[v], ms(inv.latency))
			peak = max(peak, inv.peakMB)
		}
		rounds++
	}
	var perCopy []float64
	roundMS := 0.0
	for _, l := range lat {
		perCopy = append(perCopy, median(l))
		roundMS += median(l)
	}
	o.note("%s: %d rounds, %d invocations in %.2fs; %d cells/round; f1 %.4f over %d cells",
		o.workload, rounds, attempted, elapsed.Seconds(), w.cells, rc.score.f1(), rc.score.missing)
	if rc.bad != nil {
		o.note("%s: output check failed: %v", o.workload, rc.bad)
	}
	return &result{
		Correct:   rc.bad == nil,
		Attempted: attempted,
		Failed:    rc.failed,
		Metrics: map[string]metric{
			"setup_s":       {median(setups), "s"},
			"cells_per_s":   {float64(w.cells) / roundMS * 1e3, "1/s"},
			"impute_p50_ms": {median(perCopy), "ms"},
			"impute_p90_ms": {quantile(perCopy, 9, 10), "ms"},
			"rss_mb":        {peak, "MiB"},
			"f1":            {rc.score.f1(), "ratio"},
		},
	}, nil
}

// traceOffline runs one round of invocations untraced, then the same
// round reading each invocation's -stats and timing, in this process,
// the layers the CLI runs: CSV decode, discovery with a recorder,
// imputation with a recorder, CSV encode.
func traceOffline(o *options, w *offlineWork, rc *roundCheck) (*result, error) {
	var plain, traced []float64
	for v := range w.paths {
		inv, err := w.invoke(o, w.paths[v], w.dirty[v], rc)
		if err != nil {
			return nil, err
		}
		plain = append(plain, ms(inv.latency))
	}
	var sum metricsDoc
	var wallMS, attributedMS float64
	lm := map[string]float64{}
	var dec, enc []float64
	var dist metricsDoc
	renuver.SetGlobalMetricsEnabled(true)
	global := renuver.GlobalMetrics()
	n := len(w.paths)
	for v := range w.paths {
		inv, err := w.invoke(o, w.paths[v], w.dirty[v], rc)
		if err != nil {
			return nil, err
		}
		traced = append(traced, ms(inv.latency))
		wallMS += ms(inv.latency)
		sum.add(statsDoc(inv.stats))

		start := time.Now()
		rel, err := renuver.LoadCSVFile(w.paths[v])
		if err != nil {
			return nil, err
		}
		dec = append(dec, ms(time.Since(start)))
		start = time.Now()
		sigma, err := discoveryLayers(rel, physicianThreshold, lm, n)
		if err != nil {
			return nil, err
		}
		discMS := ms(time.Since(start))
		before, err := snapshotDoc(global)
		if err != nil {
			return nil, err
		}
		res, err := renuver.Impute(rel, sigma, renuver.WithRecorder(global))
		if err != nil {
			return nil, err
		}
		after, err := snapshotDoc(global)
		if err != nil {
			return nil, err
		}
		dist.add(after.since(before))
		start = time.Now()
		if err := renuver.SaveCSV(&bytes.Buffer{}, res.Relation); err != nil {
			return nil, err
		}
		enc = append(enc, ms(time.Since(start)))
		attributedMS += dec[v] + discMS + float64(inv.stats.Phases.Total)/1e6 + enc[v]
	}
	cells := float64(sum.Counters["missing_cells"])
	if cells == 0 {
		return nil, fmt.Errorf("traced pass had no missing cells")
	}
	for k, m := range coreLayers(sum, cells) {
		lm[k] = m
	}
	calls := float64(dist.Counters["levenshtein_calls"])
	lm["distance.levenshtein_calls_per_cell"] = calls / cells
	lm["distance.mask_reject_ratio"] = ratio(float64(dist.Counters["levenshtein_mask_rejects"]), calls)
	lm["core.key_rfds"] = float64(sum.Counters["key_rfds"]) / float64(n)
	lm["dataset.decode_ms"] = median(dec)
	lm["dataset.encode_ms"] = median(enc)
	lm["obs.tracing_overhead_pct"] = 100 * (mean(traced)/mean(plain) - 1)
	unattributed := 100 * (wallMS - attributedMS) / wallMS
	lm["obs.unattributed_pct"] = unattributed
	o.note("%s traced: %d invocations; wall %.1f ms = decode+discovery+impute+encode %.1f + unattributed %.1f (%.2f%%): %s",
		o.workload, n, wallMS, attributedMS, wallMS-attributedMS, unattributed, reconciled(unattributed))
	if rc.bad != nil {
		o.note("%s: output check failed: %v", o.workload, rc.bad)
	}
	metrics, err := o.layerMetrics(lm)
	if err != nil {
		return nil, err
	}
	return &result{Correct: rc.bad == nil, Attempted: 2 * n, Failed: rc.failed, Metrics: metrics}, nil
}

// statsDoc maps a -stats document onto the recorder's names, so one
// derivation (coreLayers) serves the CLI and the server.
func statsDoc(s renuver.Stats) metricsDoc {
	return metricsDoc{
		Counters: map[string]int64{
			"missing_cells":        int64(s.MissingCells),
			"key_rfds":             int64(s.KeyRFDs),
			"candidates_tried":     int64(s.CandidatesTried),
			"donors_scanned":       int64(s.DonorsScanned),
			"candidates_evaluated": int64(s.CandidatesEvaluated),
			"faultless_checks":     int64(s.FaultlessChecks),
			"faultless_failures":   int64(s.VerifyRejections),
			"engine_cache_hits":    int64(s.EngineCacheHits),
			"engine_cache_misses":  int64(s.EngineCacheMisses),
		},
		Phases: map[string]phaseDoc{
			"preprocess":       {NS: int64(s.Phases.Preprocess)},
			"candidate_search": {NS: int64(s.Phases.CandidateSearch)},
			"ranking":          {NS: int64(s.Phases.Ranking)},
			"verify":           {NS: int64(s.Phases.Verify)},
			"key_reeval":       {NS: int64(s.Phases.KeyReeval)},
		},
	}
}

// snapshotDoc reads an in-process recorder in the /metrics JSON shape.
func snapshotDoc(m *renuver.MetricsRecorder) (metricsDoc, error) {
	var d metricsDoc
	raw, err := json.Marshal(m.Snapshot())
	if err == nil {
		err = json.Unmarshal(raw, &d)
	}
	return d, err
}
