package main

// The serve-restaurant and live-restaurant workloads: a compiled
// Restaurant base served over HTTP, with held-out tuples submitted as
// JSON batches to /v1/impute, and on live-restaurant a /v1/delta after
// every few batches.

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
	restaurantTuples    = 864 // the paper's Table 3 size
	restaurantHeldOut   = 173 // 20% held out as requests; 691 form the base
	restaurantThreshold = 6   // discovery threshold limit for the base
	batchSize           = 8   // tuples per POST /v1/impute
	deltaEvery          = 4   // live: one /v1/delta after every 4 batches
	churnPerDelta       = 4   // live: variant tuples each delta replaces
	serveSetupReps      = 7   // compile+boot repetitions for setup_s
)

// liveSlot is what one live delta of a round renews: one cell of base
// tuple update, and the variants of the churn base tuples.
type liveSlot struct {
	update int
	pick   int // picks the updated attribute among the fresh ones
	churn  []int
}

// serveWork is one seed's fixed list of operations for a restaurant
// workload; a round submits every batch once, in order.
type serveWork struct {
	t        *table
	base     [][]string // compiled into the artifact
	truth    [][]string // ground truth per request
	requests [][]string // held-out tuples with cells nulled
	batches  [][]int    // request indices per POST
	bodies   [][]byte
	slots    []liveSlot // live only: the deltas of a round
	after    []int      // slot of the delta sent after batch i, or -1
	stretch  []int      // deltas of the round sent before batch i
	cells    int        // missing cells per round
}

// nonNull counts a row's non-null cells.
func nonNull(row []string) int {
	n := 0
	for _, v := range row {
		if v != "" {
			n++
		}
	}
	return n
}

// newServeWork holds out a fixed fifth of the relation (the same split
// for every seed, so the base and Σ do not vary with it). A round sends
// each held-out tuple once per attribute with that attribute nulled,
// so every seed nulls every attribute equally often; the seed picks a
// second nulled cell for one request in three, the order the requests
// go out in, and the tuples the deltas touch.
func newServeWork(seed int64, live bool) (*serveWork, error) {
	t, err := generate("restaurant", restaurantTuples)
	if err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewSource(datasetSeed)).Perm(len(t.rows))
	held := make(map[int]bool, restaurantHeldOut)
	for _, r := range perm[:restaurantHeldOut] {
		held[r] = true
	}
	w := &serveWork{t: t}
	for r, row := range t.rows {
		if !held[r] {
			w.base = append(w.base, row)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := len(t.attrs)
	var spare []int // requests that keep a known cell after losing another
	for _, r := range perm[:restaurantHeldOut] {
		for a := 0; a < m; a++ {
			req := append([]string(nil), t.rows[r]...)
			if req[a] == "" {
				continue
			}
			req[a] = ""
			w.cells++
			if nonNull(req) > 1 {
				spare = append(spare, len(w.requests))
			}
			w.truth = append(w.truth, t.rows[r])
			w.requests = append(w.requests, req)
		}
	}
	// The seed picks which third of them lose a second cell, and which
	// one, so the missing cells of a round are the same in number for
	// every seed.
	rng.Shuffle(len(spare), func(i, j int) { spare[i], spare[j] = spare[j], spare[i] })
	for _, i := range spare[:len(spare)/3] {
		req := w.requests[i]
		k := rng.Intn(nonNull(req))
		for b := range req {
			if req[b] != "" {
				if k == 0 {
					req[b] = ""
					w.cells++
					break
				}
				k--
			}
		}
	}
	rng.Shuffle(len(w.requests), func(i, j int) {
		w.requests[i], w.requests[j] = w.requests[j], w.requests[i]
		w.truth[i], w.truth[j] = w.truth[j], w.truth[i]
	})
	for i := 0; i < len(w.requests); i += batchSize {
		var idx []int
		var buf bytes.Buffer
		buf.WriteByte('[')
		for j := i; j < i+batchSize && j < len(w.requests); j++ {
			if j > i {
				buf.WriteByte(',')
			}
			jsonTuple(&buf, t, w.requests[j])
			idx = append(idx, j)
		}
		buf.WriteByte(']')
		w.batches = append(w.batches, idx)
		w.bodies = append(w.bodies, buf.Bytes())
	}
	w.after = make([]int, len(w.batches))
	w.stretch = make([]int, len(w.batches))
	for i := range w.after {
		w.stretch[i] = len(w.slots)
		w.after[i] = -1
		if live && (i+1)%deltaEvery == 0 {
			w.after[i] = len(w.slots)
			w.slots = append(w.slots, liveSlot{})
		}
	}
	// Every slot touches its own base tuples, so no delta deletes what
	// another updates or copies.
	ids := rng.Perm(len(w.base))
	for j := range w.slots {
		w.slots[j].churn, ids = ids[:churnPerDelta], ids[churnPerDelta:]
		w.slots[j].update, ids = ids[0], ids[1:]
		w.slots[j].pick = rng.Intn(m)
	}
	return w, nil
}

// Fresh characters are drawn in turn from the CJK Unified Ideographs
// block, which no generated value uses.
const (
	freshRuneBase = 0x4E00
	freshRunes    = 20992
)

// liveBase is the client's copy of the served base under live deltas.
// A row holds a base tuple, by id (its position in serveWork.base), or
// a variant of one, by id len(base)+slot*churnPerDelta+k: the tuple
// with one fresh character appended to each of its cells of the fresh
// attributes, the string attributes no RFDc of Σ has as RHS. A live
// delta writes a fresh value into one such cell of its update tuple,
// deletes its slot's variants and inserts new ones, so every delta
// interns new strings and leaves the ones it replaced dead: the
// interners grow and compact, and the distance memo fills and is
// invalidated, within a run. Appending a character never brings two
// strings closer in edit distance, and the fresh attributes are never
// imputed, so Σ stays valid on every epoch, every imputed value is a
// base value, and each round does work of the same shape. From the
// priming delta on, the row count stays len(base)+len(slots)*churnPerDelta.
type liveBase struct {
	w     *serveWork
	fresh []int      // attributes that take a fresh character
	ids   []int      // id at each server row, in server order
	cur   [][]string // content by id; a row is replaced, never written
	runes int        // fresh characters handed out
}

// newLiveBase picks the fresh attributes from Σ and returns the body of
// the priming delta, which inserts the first variant of every slot.
func newLiveBase(w *serveWork, sigma []rule) (*liveBase, []byte, error) {
	rhs := make([]bool, len(w.t.attrs))
	for _, r := range sigma {
		rhs[r.rhs.attr] = true
	}
	l := &liveBase{w: w, cur: append([][]string(nil), w.base...)}
	for a := range w.t.attrs {
		if !rhs[a] && !w.t.numeric[a] {
			l.fresh = append(l.fresh, a)
		}
	}
	if len(l.fresh) == 0 {
		return nil, nil, fmt.Errorf("every string attribute is the RHS of an RFDc; no cell can take a fresh value")
	}
	for id := range w.base {
		l.ids = append(l.ids, id)
	}
	var buf bytes.Buffer
	buf.WriteString(`{"inserts":[`)
	for j, slot := range w.slots {
		for k, src := range slot.churn {
			if j+k > 0 {
				buf.WriteByte(',')
			}
			l.cur = append(l.cur, l.variant(src))
			l.ids = append(l.ids, l.slotID(j, k))
			jsonTuple(&buf, w.t, l.cur[l.slotID(j, k)])
		}
	}
	buf.WriteString("]}")
	return l, buf.Bytes(), nil
}

// slotID is the id of slot j's k-th variant.
func (l *liveBase) slotID(j, k int) int { return len(l.w.base) + j*churnPerDelta + k }

// nextRune returns the next fresh character.
func (l *liveBase) nextRune() string {
	r := rune(freshRuneBase + l.runes%freshRunes)
	l.runes++
	return string(r)
}

// variant returns base tuple src with one fresh character appended to
// its non-null cells of the fresh attributes.
func (l *liveBase) variant(src int) []string {
	r := l.nextRune()
	row := append([]string(nil), l.w.base[src]...)
	for _, a := range l.fresh {
		if row[a] != "" {
			row[a] += r
		}
	}
	return row
}

func (l *liveBase) pos(id int) int {
	for i, x := range l.ids {
		if x == id {
			return i
		}
	}
	panic(fmt.Sprintf("e2ebench: tuple %d not in the live base", id))
}

// apply applies slot j's delta to the copy and returns its /v1/delta
// body, with row handles into the rows as they were before it.
func (l *liveBase) apply(j int) []byte {
	slot := l.w.slots[j]
	a := l.fresh[slot.pick%len(l.fresh)]
	row := append([]string(nil), l.cur[slot.update]...)
	if row[a] = l.w.base[slot.update][a]; row[a] != "" {
		row[a] += l.nextRune()
	}
	l.cur[slot.update] = row
	val := []byte("null")
	if row[a] != "" {
		val, _ = json.Marshal(row[a])
	}
	name, _ := json.Marshal(l.w.t.attrs[a])
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"updates":[{"row":%d,"attr":%s,"value":%s}],"deletes":[`, l.pos(slot.update), name, val)
	gone := map[int]bool{}
	for k := range slot.churn {
		if k > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%d", l.pos(l.slotID(j, k)))
		gone[l.slotID(j, k)] = true
	}
	// As the server applies a delta: the deleted rows leave, the
	// survivors keep their order, and the inserts append. The new
	// variants take the ids of the ones they replace.
	kept := l.ids[:0]
	for _, id := range l.ids {
		if !gone[id] {
			kept = append(kept, id)
		}
	}
	l.ids = kept
	buf.WriteString(`],"inserts":[`)
	for k, src := range slot.churn {
		if k > 0 {
			buf.WriteByte(',')
		}
		id := l.slotID(j, k)
		l.cur[id] = l.variant(src)
		l.ids = append(l.ids, id)
		jsonTuple(&buf, l.w.t, l.cur[id])
	}
	buf.WriteString("]}")
	return buf.Bytes()
}

// roundPlan is what a round sends besides the impute batches, and what
// its batches meet.
type roundPlan struct {
	deltas [][]byte      // live: the body of each slot's delta
	ix     []*donorIndex // ix[s]: the donors after s deltas of the round
}

// plan applies a round's deltas to the copy, indexing the donors
// between them for the checks.
func (l *liveBase) plan(ck *checker) roundPlan {
	p := roundPlan{ix: []*donorIndex{ck.index(l.current())}}
	for j := range l.w.slots {
		p.deltas = append(p.deltas, l.apply(j))
		p.ix = append(p.ix, ck.index(l.current()))
	}
	return p
}

func (l *liveBase) current() [][]string {
	rows := make([][]string, len(l.ids))
	for i, id := range l.ids {
		rows[i] = l.cur[id]
	}
	return rows
}

// opRecord is one request of a round as the client saw it.
type opRecord struct {
	batch   int // -1 for a delta
	delta   int
	status  int
	err     error
	body    []byte
	traceID string
	latency time.Duration
}

// round submits every batch once, and the live deltas between them,
// closed loop on one connection.
func (w *serveWork) round(s *server, p roundPlan, each func(opRecord)) []opRecord {
	var recs []opRecord
	send := func(rec opRecord, path string, body []byte) {
		status, hdr, data, lat, err := s.post(path, "application/json", body)
		rec.status, rec.err, rec.body, rec.latency = status, err, data, lat
		if hdr != nil {
			rec.traceID = hdr.Get("X-Request-Id")
		}
		if each != nil {
			each(rec)
		}
		recs = append(recs, rec)
	}
	for i, body := range w.bodies {
		send(opRecord{batch: i, delta: -1}, "/v1/impute", body)
		if j := w.after[i]; j >= 0 {
			send(opRecord{batch: -1, delta: j}, "/v1/delta", p.deltas[j])
		}
	}
	return recs
}

// batchResponse is the part of the /v1/impute JSON answer the checks read.
type batchResponse struct {
	Results []struct {
		Tuple map[string]any `json:"tuple"`
		Error string         `json:"error"`
	} `json:"results"`
}

// deltaResponse is the part of the /v1/delta answer the checks read.
type deltaResponse struct {
	Rows     int `json:"rows"`
	Inserted int `json:"inserted"`
	Updated  int `json:"updated"`
	Deleted  int `json:"deleted"`
}

// roundCheck is what checking the records of rounds found.
type roundCheck struct {
	failed int
	bad    error // first output check that failed
	score  score
}

// check reads a round's records: failed requests are counted, a delta
// must answer with the live row counts (rows), and every returned tuple
// must pass the output checks against the donors its batch met. A
// tuple answered with an error scores as missing and not imputed.
func (w *serveWork) check(recs []opRecord, p roundPlan, rows int, ck *checker, rc *roundCheck) {
	v := newValidator(restaurantRules)
	for _, rec := range recs {
		if rec.err != nil || rec.status != 200 {
			rc.failed++
			continue
		}
		if rec.delta >= 0 {
			var dr deltaResponse
			if err := json.Unmarshal(rec.body, &dr); err != nil || dr.Rows != rows ||
				dr.Inserted != churnPerDelta || dr.Updated != 1 || dr.Deleted != churnPerDelta {
				rc.failed++
			}
			continue
		}
		var br batchResponse
		dec := json.NewDecoder(bytes.NewReader(rec.body))
		dec.UseNumber()
		idx := w.batches[rec.batch]
		if err := dec.Decode(&br); err != nil || len(br.Results) != len(idx) {
			rc.failed++
			continue
		}
		ix := p.ix[w.stretch[rec.batch]]
		failed := false
		for k, res := range br.Results {
			in := w.requests[idx[k]]
			if res.Error != "" || res.Tuple == nil {
				failed = true
				rc.score.add(v, w.t.attrs, in, in, w.truth[idx[k]])
				continue
			}
			out, err := w.cells2row(res.Tuple)
			if err == nil {
				err = ck.checkTuple(in, out, ix, -1)
			}
			if err != nil {
				if rc.bad == nil {
					rc.bad = fmt.Errorf("batch %d tuple %d: %w", rec.batch, k, err)
				}
				continue
			}
			rc.score.add(v, w.t.attrs, in, out, w.truth[idx[k]])
		}
		if failed {
			rc.failed++
		}
	}
}

// cells2row converts a returned JSON tuple into table cells.
func (w *serveWork) cells2row(obj map[string]any) ([]string, error) {
	if len(obj) != len(w.t.attrs) {
		return nil, errShape
	}
	row := make([]string, len(w.t.attrs))
	for a, name := range w.t.attrs {
		switch v := obj[name].(type) {
		case nil:
		case string:
			row[a] = v
		case json.Number:
			row[a] = v.String()
		case bool:
			row[a] = strconv.FormatBool(v)
		default:
			return nil, fmt.Errorf("attribute %s: unexpected %T", name, v)
		}
	}
	return row, nil
}

// serveSetup compiles the base (discovering Σ) and boots a server from
// the artifact; it returns the server, Σ as compiled, and the time from
// the start of the compile to a healthy server.
func serveSetup(o *options, w *serveWork, dir string) (*server, []rule, time.Duration, error) {
	baseCSV := filepath.Join(dir, "base.csv")
	if err := writeCSV(baseCSV, w.t.attrs, w.base); err != nil {
		return nil, nil, 0, err
	}
	art, sigmaPath := filepath.Join(dir, "base.rnv"), filepath.Join(dir, "sigma.rfd")
	start := time.Now()
	cmd := exec.Command(o.renuver, "compile", "-in", baseCSV, "-out", art,
		"-threshold", strconv.Itoa(restaurantThreshold), "-save-rfds", sigmaPath)
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, nil, 0, fmt.Errorf("renuver compile: %v\n%s", err, out)
	}
	s, err := startServer(o.renuver, art)
	if err != nil {
		return nil, nil, 0, err
	}
	took := time.Since(start)
	text, err := os.ReadFile(sigmaPath)
	if err != nil {
		s.stop()
		return nil, nil, 0, err
	}
	sigma, err := parseRules(string(text), w.t.attrs)
	if err != nil {
		s.stop()
		return nil, nil, 0, err
	}
	return s, sigma, took, nil
}

// stream is a booted restaurant workload: the server, the checks, and
// on live-restaurant the client's copy of the live base.
type stream struct {
	s     *server
	w     *serveWork
	ck    *checker
	live  *liveBase
	fixed roundPlan // serve-restaurant: the donors every round meets
	rows  int       // live: base rows after every delta
}

// newStream prepares the rounds; on live-restaurant it sends the
// priming delta that inserts the first variants.
func newStream(s *server, w *serveWork, sigma []rule, live bool) (*stream, error) {
	st := &stream{s: s, w: w, ck: newChecker(w.t, sigma)}
	if !live {
		st.fixed = roundPlan{ix: []*donorIndex{st.ck.index(w.base)}}
		return st, nil
	}
	l, prime, err := newLiveBase(w, sigma)
	if err != nil {
		return nil, err
	}
	status, _, body, _, err := s.post("/v1/delta", "application/json", prime)
	var dr deltaResponse
	switch {
	case err != nil:
	case status != 200:
		err = fmt.Errorf("status %d: %s", status, body)
	default:
		if err = json.Unmarshal(body, &dr); err == nil && dr.Rows != len(l.ids) {
			err = fmt.Errorf("%d rows after it, want %d", dr.Rows, len(l.ids))
		}
	}
	if err != nil {
		return nil, fmt.Errorf("priming delta: %w", err)
	}
	st.live, st.rows = l, len(l.ids)
	return st, nil
}

// next returns the plan of the next round.
func (st *stream) next() roundPlan {
	if st.live != nil {
		return st.live.plan(st.ck)
	}
	return st.fixed
}

// round sends and checks one whole round.
func (st *stream) round(each func(opRecord), rc *roundCheck) []opRecord {
	p := st.next()
	recs := st.w.round(st.s, p, each)
	st.w.check(recs, p, st.rows, st.ck, rc)
	return recs
}

// runServe runs serve-restaurant (live=false) or live-restaurant.
func runServe(o *options, live bool) (*result, error) {
	w, err := newServeWork(o.seed, live)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, o.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	reps := serveSetupReps
	if o.trace {
		reps = 1
	}
	var s *server
	var sigma []rule
	var setups []float64
	for i := 0; i < reps; i++ {
		if s != nil {
			s.stop()
		}
		var took time.Duration
		if s, sigma, took, err = serveSetup(o, w, dir); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	st, err := newStream(s, w, sigma, live)
	if err != nil {
		s.stop()
		return nil, err
	}
	var rc roundCheck

	// One untimed round warms the server's distance memo; its outputs
	// are checked and its failures counted, but it counts in no other
	// figure.
	var warm roundCheck
	attempted := len(st.round(nil, &warm))
	rc.failed, rc.bad = warm.failed, warm.bad

	if o.trace {
		res, err := traceServe(o, st, &rc, attempted, dir)
		if _, stopErr := s.stop(); err == nil && stopErr != nil {
			err = fmt.Errorf("server exit: %w", stopErr)
		}
		return res, err
	}

	// Round times are reported as their median over the rounds, and
	// latencies as quantiles over the batches of each batch's median
	// latency over the rounds (every round sends the same batches), so a
	// burst of contention from outside the benchmark moves one round,
	// not the run, and the tail is that of the requests' work.
	var roundS, dlat, rss []float64
	batchMS := make([][]float64, len(w.bodies))
	var elapsed time.Duration
	rounds := 0
	for o.more(rounds, elapsed) {
		p := st.next()
		resident := s.watchRSS()
		var recs []opRecord
		var took time.Duration
		withoutGC(func() {
			start := time.Now()
			recs = w.round(s, p, nil)
			took = time.Since(start)
		})
		mb, err := resident()
		if err != nil {
			s.stop()
			return nil, err
		}
		rss = append(rss, mb...)
		elapsed += took
		roundS = append(roundS, took.Seconds())
		rounds++
		for _, r := range recs {
			attempted++
			if r.delta >= 0 {
				dlat = append(dlat, ms(r.latency))
			} else {
				batchMS[r.batch] = append(batchMS[r.batch], ms(r.latency))
			}
		}
		w.check(recs, p, st.rows, st.ck, &rc)
	}
	lat := make([]float64, len(batchMS))
	for i, xs := range batchMS {
		lat[i] = median(xs)
	}
	peak, err := s.stop()
	if err != nil {
		return nil, fmt.Errorf("server exit: %w", err)
	}
	res := &result{
		Correct:   rc.bad == nil,
		Attempted: attempted,
		Failed:    rc.failed,
		Metrics: map[string]metric{
			"setup_s":       {median(setups), "s"},
			"cells_per_s":   {float64(w.cells) / median(roundS), "1/s"},
			"impute_p50_ms": {median(lat), "ms"},
			"impute_p90_ms": {quantile(lat, 9, 10), "ms"},
			"rss_mb":        {median(rss), "MiB"},
			"f1":            {rc.score.f1(), "ratio"},
		},
	}
	o.note("%s: %d timed rounds in %.2fs (%d requests, %d of them deltas), %d requests with the warm-up round; %d cells/round; f1 %.4f over %d cells",
		o.workload, rounds, elapsed.Seconds(), attempted-len(w.bodies)-len(w.slots), len(dlat), attempted, w.cells, rc.score.f1(), rc.score.missing)
	o.note("%s: round seconds %.3f", o.workload, roundS)
	o.note("%s: resident set over %d samples: median %.1f MiB, p90 %.1f MiB; peak of the whole run %.1f MiB",
		o.workload, len(rss), median(rss), quantile(rss, 9, 10), peak)
	if live {
		o.note("%s: delta p50 %.3f ms over %d deltas", o.workload, median(dlat), len(dlat))
	}
	if rc.bad != nil {
		o.note("%s: output check failed: %v", o.workload, rc.bad)
	}
	return res, nil
}

// traceServe is the traced run of a restaurant workload: a fixed number
// of rounds without tracing, then the same rounds again reading the
// recorder after every request and the span tree of every impute
// request, plus in-process timings of the layers the server calls.
func traceServe(o *options, st *stream, rc *roundCheck, attempted int, dir string) (*result, error) {
	s, w := st.s, st.w
	rounds := o.traceRounds()
	var plain []float64
	for i := 0; i < rounds; i++ {
		recs := st.round(nil, rc)
		for _, r := range recs {
			attempted++
			if r.delta < 0 {
				plain = append(plain, ms(r.latency))
			}
		}
	}

	// The recorder is read after every request, so the growth an impute
	// causes and the growth a delta causes (revalidation computes
	// distances too) are told apart.
	var last metricsDoc
	if err := s.getJSON("/v1/metrics", &last); err != nil {
		return nil, err
	}
	var imp, del metricsDoc
	var traced, dlat []float64
	var clientMS, imputeMS, keyRFDs float64
	var imputeCalls int
	var traceErr error
	for i := 0; i < rounds; i++ {
		recs := st.round(func(r opRecord) {
			var now metricsDoc
			if err := s.getJSON("/v1/metrics", &now); err != nil {
				traceErr = err
				return
			}
			if r.delta >= 0 {
				del.add(now.since(last))
				last = now
				dlat = append(dlat, ms(r.latency))
				return
			}
			imp.add(now.since(last))
			last = now
			traced = append(traced, ms(r.latency))
			root, err := s.requestSpans(r.traceID)
			if err != nil {
				traceErr = err
				return
			}
			clientMS += ms(r.latency)
			root.walk(func(n *spanNode) {
				switch n.Name {
				case "batch_tuple":
					imputeMS += n.DurationUS / 1e3
				case "preprocess":
					imputeCalls++
					if k, ok := n.Attrs["key_rfds"].(float64); ok {
						keyRFDs += k
					}
				}
			})
		}, rc)
		attempted += len(recs)
	}
	if traceErr != nil {
		return nil, traceErr
	}
	cells := float64(imp.Counters["missing_cells"])
	if cells == 0 || imputeCalls == 0 {
		return nil, fmt.Errorf("traced pass imputed nothing")
	}
	lm := coreLayers(imp, cells)
	lm["core.key_rfds"] = keyRFDs / float64(imputeCalls)
	lm["serve.overhead_ms"] = (clientMS - imputeMS) / float64(len(traced))
	lm["obs.tracing_overhead_pct"] = 100 * (mean(traced)/mean(plain) - 1)
	phases := 0.0
	for _, p := range []string{"preprocess", "candidate_search", "ranking", "verify", "key_reeval"} {
		phases += imp.phaseMS(p)
	}
	unattributed := 100 * (imputeMS - phases) / clientMS
	lm["obs.unattributed_pct"] = unattributed
	if applied := float64(del.Counters["delta_applied"]); applied > 0 {
		lm["delta.build_ms"] = del.phaseMS("delta_build") / applied
		lm["delta.revalidate_ms"] = del.phaseMS("delta_revalidate") / applied
		lm["delta.index_ms"] = del.phaseMS("delta_index") / applied
		lm["delta.cache_shards_invalidated"] = float64(del.Counters["delta_cache_shards_invalidated"]) / applied
		lm["delta.compactions"] = float64(del.Counters["interners_compacted"]) / applied
		lm["delta.request_p50_ms"] = median(dlat)
	}

	// In-process timings of the layers around the server's hot path.
	art := filepath.Join(dir, "base.rnv")
	if err := inProcessServeLayers(w, art, filepath.Join(dir, "base.csv"), lm); err != nil {
		return nil, err
	}
	o.note("%s traced: %d requests; client %.1f ms = phases %.1f + serve overhead %.1f + unattributed %.1f (%.2f%%): %s",
		o.workload, len(traced), clientMS, phases, clientMS-imputeMS, imputeMS-phases, unattributed, reconciled(unattributed))
	metrics, err := o.layerMetrics(lm)
	if err != nil {
		return nil, err
	}
	return &result{Correct: rc.bad == nil, Attempted: attempted, Failed: rc.failed, Metrics: metrics}, nil
}

// inProcessServeLayers times, in this process, the public functions of
// the layers a restaurant request and boot pass through: the dataset
// JSON codec on the same batches, artifact boot, and discovery on the
// same base.
func inProcessServeLayers(w *serveWork, art, baseCSV string, lm map[string]float64) error {
	var dec, enc []float64
	for _, body := range w.bodies {
		var objs []json.RawMessage
		if err := json.Unmarshal(body, &objs); err != nil {
			return err
		}
		var lines bytes.Buffer
		for _, obj := range objs {
			lines.Write(obj)
			lines.WriteByte('\n')
		}
		start := time.Now()
		rel, err := renuver.LoadJSONLines(bytes.NewReader(lines.Bytes()))
		if err != nil {
			return err
		}
		dec = append(dec, ms(time.Since(start)))
		var out bytes.Buffer
		start = time.Now()
		if err := renuver.SaveJSONLines(&out, rel); err != nil {
			return err
		}
		enc = append(enc, ms(time.Since(start)))
	}
	lm["dataset.decode_ms"] = median(dec)
	lm["dataset.encode_ms"] = median(enc)

	var boots []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := renuver.LoadSession(art); err != nil {
			return err
		}
		boots = append(boots, ms(time.Since(start)))
	}
	st, err := os.Stat(art)
	if err != nil {
		return err
	}
	lm["artifact.boot_ms"] = median(boots)
	lm["artifact.bytes"] = float64(st.Size())

	base, err := renuver.LoadCSVFile(baseCSV)
	if err != nil {
		return err
	}
	_, err = discoveryLayers(base, restaurantThreshold, lm, 1)
	return err
}

// discoveryLayers runs discovery in process with a recorder and adds
// its materialize/search split and rule count, divided by runs (the
// caller accumulates over that many relations into lm).
func discoveryLayers(rel *renuver.Relation, threshold float64, lm map[string]float64, runs int) (renuver.RFDSet, error) {
	rec := renuver.NewMetricsRecorder()
	sigma, err := renuver.DiscoverRFDs(rel, renuver.DiscoveryOptions{MaxThreshold: threshold, MaxLHS: 2, Recorder: rec})
	if err != nil {
		return nil, err
	}
	d, err := snapshotDoc(rec)
	if err != nil {
		return nil, err
	}
	lm["discovery.materialize_s"] += d.phaseMS("discovery_materialize") / 1e3 / float64(runs)
	lm["discovery.search_s"] += d.phaseMS("discovery_search") / 1e3 / float64(runs)
	lm["discovery.rules"] += float64(len(sigma)) / float64(runs)
	return sigma, nil
}

// coreLayers derives the imputation-layer metrics from recorder growth
// over a pass that submitted cells missing cells.
func coreLayers(d metricsDoc, cells float64) map[string]float64 {
	c := func(name string) float64 { return float64(d.Counters[name]) }
	return map[string]float64{
		"core.preprocess_ms_per_cell":         d.phaseMS("preprocess") / cells,
		"core.candidate_search_ms_per_cell":   d.phaseMS("candidate_search") / cells,
		"core.ranking_ms_per_cell":            d.phaseMS("ranking") / cells,
		"core.verify_ms_per_cell":             d.phaseMS("verify") / cells,
		"core.key_reeval_ms_per_cell":         d.phaseMS("key_reeval") / cells,
		"core.tried_per_cell":                 c("candidates_tried") / cells,
		"core.verify_accept_ratio":            ratio(c("faultless_checks")-c("faultless_failures"), c("faultless_checks")),
		"core.donors_scanned_per_cell":        c("donors_scanned") / cells,
		"core.candidates_per_cell":            c("candidates_evaluated") / cells,
		"engine.cache_hit_ratio":              ratio(c("engine_cache_hits"), c("engine_cache_hits")+c("engine_cache_misses")),
		"engine.cache_lookups_per_cell":       (c("engine_cache_hits") + c("engine_cache_misses")) / cells,
		"distance.levenshtein_calls_per_cell": c("levenshtein_calls") / cells,
		"distance.mask_reject_ratio":          ratio(c("levenshtein_mask_rejects"), c("levenshtein_calls")),
	}
}
