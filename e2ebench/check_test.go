package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
)

// checkFixture is a two-donor base with Σ = {Phone(<=1) -> City(<=0),
// Name(<=2), Class(<=0) -> City(<=0)} and a request whose City is
// missing; Granita's row is the one donor within an LHS.
func checkFixture(t *testing.T) (*checker, *donorIndex, []string) {
	t.Helper()
	tb := &table{
		attrs:   []string{"Name", "City", "Phone", "Class"},
		numeric: []bool{false, false, false, true},
	}
	base := [][]string{
		{"Granita", "Malibu", "310/456-0488", "1"},
		{"Spago", "W. Hollywood", "310/652-4025", "2"},
	}
	sigma, err := parseRules("# 2 RFDcs\nPhone(<=1) -> City(<=0)\nName(<=2.0), Class(<=0) -> City(<=0)\n", tb.attrs)
	if err != nil {
		t.Fatal(err)
	}
	ck := newChecker(tb, sigma)
	return ck, ck.index(base), []string{"Granita", "", "310/456-0488", "1"}
}

func TestCheckAcceptsSoundImputation(t *testing.T) {
	ck, ix, in := checkFixture(t)
	if err := ck.checkTuple(in, []string{"Granita", "Malibu", "310/456-0488", "1.0"}, ix, -1); err != nil {
		t.Fatalf("sound imputation: %v", err)
	}
	if err := ck.checkTuple(in, in, ix, -1); err != nil {
		t.Fatalf("unimputed tuple: %v", err)
	}
}

func TestCheckRejectsCorruptedOutputs(t *testing.T) {
	ck, ix, in := checkFixture(t)
	for _, tc := range []struct {
		name string
		out  []string
		want error
	}{
		{"changed non-null cell", []string{"Granitx", "Malibu", "310/456-0488", "1"}, errChangedCell},
		{"changed numeric cell", []string{"Granita", "Malibu", "310/456-0488", "2"}, errChangedCell},
		{"value no donor holds", []string{"Granita", "Venice", "310/456-0488", "1"}, errNoDonorValue},
		{"donor outside every LHS threshold", []string{"Granita", "W. Hollywood", "310/456-0488", "1"}, errOutsideLHS},
		{"wrong arity", []string{"Granita", "Malibu", "310/456-0488"}, errShape},
	} {
		if err := ck.checkTuple(in, tc.out, ix, -1); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestCheckExcludesTheTupleItself(t *testing.T) {
	ck, ix, _ := checkFixture(t)
	// Row 0 of the index imputing its own City would be its own donor.
	in := []string{"Granita", "", "310/456-0488", "1"}
	if err := ck.checkTuple(in, []string{"Granita", "Malibu", "310/456-0488", "1"}, ix, 0); !errors.Is(err, errNoDonorValue) {
		t.Fatalf("self as donor: got %v, want %v", err, errNoDonorValue)
	}
}

func TestEditDistance(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		d    int
	}{
		{"", "", 0}, {"abc", "", 3}, {"kitten", "sitting", 3},
		{"310/456-0488", "310-456-0488", 1}, {"Zürich", "Zurich", 1},
	} {
		if got := editDistance(tc.a, tc.b); got != tc.d {
			t.Errorf("editDistance(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.d)
		}
	}
}

func TestValidatorAndF1(t *testing.T) {
	r := newValidator(restaurantRules)
	p := newValidator(physicianRules)
	for _, tc := range []struct {
		v               *validator
		attr, got, want string
		ok              bool
	}{
		{r, "Phone", "310-456-0488", "310/456-0488", true},
		{r, "City", "la", "Los Angeles", true},
		{r, "City", "Malibu", "Los Angeles", false},
		{p, "GradYear", "1998", "2000", true},
		{p, "GradYear", "1997", "2000", false},
		{r, "Name", "", "Spago", false},
	} {
		if got := tc.v.correct(tc.attr, tc.got, tc.want); got != tc.ok {
			t.Errorf("correct(%s, %q, %q) = %v, want %v", tc.attr, tc.got, tc.want, got, tc.ok)
		}
	}
	// Two missing cells: one imputed correctly, one left missing, so
	// P = 1, R = 1/2 and F1 = 2/3.
	var s score
	attrs := []string{"Name", "City"}
	s.add(r, attrs, []string{"", ""}, []string{"Spago", ""}, []string{"Spago", "Malibu"})
	if f := s.f1(); f < 0.6666 || f > 0.6667 {
		t.Fatalf("f1 = %v, want 2/3", f)
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles(range(1, 11), n=10)[8] == 9.9
	if p90 := quantile(xs, 9, 10); math.Abs(p90-9.9) > 1e-12 {
		t.Fatalf("p90 = %v", p90)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.median agrees on even and odd counts.
	if m2, m3 := median([]float64{3, 1}), median([]float64{7}); m2 != 2 || m3 != 7 {
		t.Fatalf("median = %v, %v", m2, m3)
	}
}

// liveFixture is a ten-tuple base with two live slots and Σ whose only
// RHS is Phone, so Name and City take fresh characters.
func liveFixture(t *testing.T) (*serveWork, []rule) {
	t.Helper()
	w := &serveWork{t: &table{attrs: []string{"Name", "City", "Phone", "Class"}, numeric: []bool{false, false, false, true}}}
	for i := 0; i < 10; i++ {
		w.base = append(w.base, []string{fmt.Sprintf("n%d", i), fmt.Sprintf("c%d", i), fmt.Sprintf("p%d", i), fmt.Sprint(i)})
	}
	w.slots = []liveSlot{{update: 0, pick: 1, churn: []int{1, 2, 3, 4}}, {update: 5, pick: 0, churn: []int{6, 7, 8, 9}}}
	sigma, err := parseRules("Name(<=1) -> Phone(<=0)\n", w.t.attrs)
	if err != nil {
		t.Fatal(err)
	}
	return w, sigma
}

func TestLiveBaseReplaysDeltas(t *testing.T) {
	w, sigma := liveFixture(t)
	l, prime, err := newLiveBase(w, sigma)
	if err != nil {
		t.Fatal(err)
	}
	var primed struct{ Inserts []map[string]any }
	if err := json.Unmarshal(prime, &primed); err != nil || len(primed.Inserts) != 8 || len(l.ids) != 18 {
		t.Fatalf("priming delta: %v, %d inserts, %d rows", err, len(primed.Inserts), len(l.ids))
	}
	// A variant differs from its source by one character in each fresh
	// attribute, and not at all elsewhere.
	v := l.cur[l.slotID(0, 0)]
	if editDistance(v[0], "n1") != 1 || editDistance(v[1], "c1") != 1 || v[2] != "p1" || v[3] != "1" {
		t.Fatalf("variant of tuple 1 = %q", v)
	}
	type body struct {
		Updates []struct {
			Row   int
			Attr  string
			Value string
		}
		Deletes []int
		Inserts []map[string]any
	}
	var d body
	if err := json.Unmarshal(l.apply(0), &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Updates) != 1 || d.Updates[0].Row != 0 || d.Updates[0].Attr != "City" ||
		editDistance(d.Updates[0].Value, "c0") != 1 || fmt.Sprint(d.Deletes) != "[10 11 12 13]" || len(d.Inserts) != 4 {
		t.Fatalf("slot 0 delta = %+v", d)
	}
	// The deleted rows leave, the survivors keep their order, and the
	// new variants append.
	if got := fmt.Sprint(l.ids[10:]); got != "[14 15 16 17 10 11 12 13]" {
		t.Fatalf("ids after slot 0 = %s", got)
	}
	if err := json.Unmarshal(l.apply(1), &d); err != nil || fmt.Sprint(d.Deletes) != "[10 11 12 13]" || d.Updates[0].Attr != "Name" {
		t.Fatalf("slot 1 delta = %+v (%v)", d, err)
	}
	if got := fmt.Sprint(l.ids[10:]); got != "[10 11 12 13 14 15 16 17]" {
		t.Fatalf("ids after slot 1 = %s", got)
	}
	if old, now := v[0], l.cur[l.slotID(0, 0)][0]; old == now || editDistance(now, "n1") != 1 {
		t.Fatalf("slot 0 variant not renewed: %q -> %q", old, now)
	}
}

func TestCheckScoresErroredTupleAsMissing(t *testing.T) {
	w, sigma := liveFixture(t)
	w.requests = [][]string{{"n1", "", "", "1"}}
	w.truth = [][]string{w.base[1]}
	w.batches = [][]int{{0}}
	w.stretch = []int{0}
	ck := newChecker(w.t, sigma)
	p := roundPlan{ix: []*donorIndex{ck.index(w.base)}}
	var rc roundCheck
	body := []byte(`{"results":[{"error":"bad tuple","code":"bad_tuple"}]}`)
	w.check([]opRecord{{batch: 0, delta: -1, status: 200, body: body}}, p, 0, ck, &rc)
	if rc.failed != 1 || rc.score.missing != 2 || rc.score.imputed != 0 || rc.bad != nil {
		t.Fatalf("errored tuple: failed %d, score %+v, bad %v", rc.failed, rc.score, rc.bad)
	}
}
