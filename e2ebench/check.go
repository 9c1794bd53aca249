package main

// Output checks computed apart from the program. The edit distance,
// absolute difference, RFDc parser and validator rules below are the
// benchmark's own, so a fault in internal/distance, internal/engine or
// internal/eval cannot hide itself by also breaking its check.

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

var (
	errChangedCell  = errors.New("a non-null input cell came back changed")
	errNoDonorValue = errors.New("imputed value is held by no donor tuple")
	errOutsideLHS   = errors.New("no donor holding the value is within the LHS thresholds of an RFDc for the attribute")
	errShape        = errors.New("output tuple has the wrong arity")
)

// bound is one LHS (or RHS) component of an RFDc: attribute and
// distance threshold.
type bound struct {
	attr int
	max  float64
}

// rule is one relaxed functional dependency with comparison
// constraints, LHS → RHS.
type rule struct {
	lhs []bound
	rhs bound
}

// parseRules reads the program's textual RFDc form, one per line:
// "Name(<=3), Phone(<=3) -> Addr(<=0)"; '#' lines are comments.
func parseRules(text string, attrs []string) ([]rule, error) {
	index := map[string]int{}
	for a, name := range attrs {
		index[name] = a
	}
	parse := func(s string) (bound, error) {
		s = strings.TrimSpace(s)
		open := strings.LastIndexByte(s, '(')
		if open < 0 || !strings.HasSuffix(s, ")") {
			return bound{}, fmt.Errorf("malformed component %q", s)
		}
		a, ok := index[strings.TrimSpace(s[:open])]
		if !ok {
			return bound{}, fmt.Errorf("unknown attribute in %q", s)
		}
		th := strings.TrimPrefix(strings.TrimSpace(s[open+1:len(s)-1]), "<=")
		max, err := strconv.ParseFloat(strings.TrimSpace(th), 64)
		if err != nil {
			return bound{}, fmt.Errorf("bad threshold in %q", s)
		}
		return bound{a, max}, nil
	}
	var out []rule
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lhs, rhs, ok := strings.Cut(line, "->")
		if !ok {
			return nil, fmt.Errorf("rules line %d: missing ->", i+1)
		}
		var r rule
		var err error
		if r.rhs, err = parse(rhs); err != nil {
			return nil, fmt.Errorf("rules line %d: %w", i+1, err)
		}
		for _, comp := range strings.Split(lhs, ",") {
			b, err := parse(comp)
			if err != nil {
				return nil, fmt.Errorf("rules line %d: %w", i+1, err)
			}
			r.lhs = append(r.lhs, b)
		}
		out = append(out, r)
	}
	return out, nil
}

// editDistance is the textbook two-row Levenshtein DP over runes.
func editDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// checker holds what the checks need to know about one relation.
type checker struct {
	attrs   []string
	numeric []bool
	byRHS   [][]rule // Σ grouped by RHS attribute
}

func newChecker(t *table, sigma []rule) *checker {
	c := &checker{attrs: t.attrs, numeric: t.numeric, byRHS: make([][]rule, len(t.attrs))}
	for _, r := range sigma {
		c.byRHS[r.rhs.attr] = append(c.byRHS[r.rhs.attr], r)
	}
	return c
}

// canon maps a cell to the key equal values share: numerics compare by
// value ("3" equals "3.0"), strings byte for byte.
func (c *checker) canon(a int, v string) string {
	if c.numeric[a] {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return strconv.FormatFloat(f, 'g', -1, 64)
		}
	}
	return v
}

// within reports whether two non-null cells of attribute a are at most
// max apart: absolute difference for numerics, edit distance otherwise.
func (c *checker) within(a int, x, y string, max float64) bool {
	if x == "" || y == "" {
		return false
	}
	if c.numeric[a] {
		fx, err1 := strconv.ParseFloat(x, 64)
		fy, err2 := strconv.ParseFloat(y, 64)
		return err1 == nil && err2 == nil && math.Abs(fx-fy) <= max
	}
	return float64(editDistance(x, y)) <= max
}

// donorIndex finds the donor rows holding a value for an attribute.
type donorIndex struct {
	rows    [][]string
	byValue []map[string][]int
}

func (c *checker) index(rows [][]string) *donorIndex {
	ix := &donorIndex{rows: rows, byValue: make([]map[string][]int, len(c.attrs))}
	for a := range c.attrs {
		ix.byValue[a] = map[string][]int{}
	}
	for r, row := range rows {
		for a, v := range row {
			if v != "" {
				k := c.canon(a, v)
				ix.byValue[a][k] = append(ix.byValue[a][k], r)
			}
		}
	}
	return ix
}

// checkTuple checks one output tuple against the tuple submitted:
// non-null cells come back unchanged, and every imputed value is held
// by a donor (a row of ix other than self; self < 0 for none) that lies
// within the LHS thresholds of some RFDc of Σ whose RHS is that
// attribute. The LHS is compared on the output tuple, since a cell
// imputed earlier in the run may serve as LHS for a later one.
func (c *checker) checkTuple(in, out []string, ix *donorIndex, self int) error {
	if len(out) != len(in) || len(in) != len(c.attrs) {
		return errShape
	}
	for a, v := range out {
		if in[a] != "" {
			if c.canon(a, in[a]) != c.canon(a, v) {
				return fmt.Errorf("%s %q -> %q: %w", c.attrs[a], in[a], v, errChangedCell)
			}
			continue
		}
		if v == "" {
			continue
		}
		holders := ix.byValue[a][c.canon(a, v)]
		found, fits := false, false
		for _, d := range holders {
			if d == self {
				continue
			}
			found = true
			if c.fitsSomeRule(a, out, ix.rows[d]) {
				fits = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s = %q: %w", c.attrs[a], v, errNoDonorValue)
		}
		if !fits {
			return fmt.Errorf("%s = %q: %w", c.attrs[a], v, errOutsideLHS)
		}
	}
	return nil
}

func (c *checker) fitsSomeRule(a int, t, donor []string) bool {
	for _, r := range c.byRHS[a] {
		ok := true
		for _, b := range r.lhs {
			if !c.within(b.attr, t[b.attr], donor[b.attr], b.max) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// validator judges an imputed value against the ground truth under the
// paper's rule-based framework (Sec. 6.1): equality, or regex-matched
// parts equal, or both spellings in one value set, or a numeric
// deviation within delta.
type validator struct {
	regex  map[string]*regexp.Regexp
	sets   map[string][][]string
	deltas map[string]float64
}

// The validator rules of the two datasets the workloads use.
const (
	restaurantRules = `regex Phone: [0-9]
set City: Los Angeles | LA | L.A.
set City: New York | New York City | NY
set City: Hollywood | W. Hollywood
set City: Santa Monica | S. Monica
set Type: French | French (new)
set Type: American | American (new)`
	physicianRules = `regex Phone: [0-9]
delta GradYear: 2
delta OrgMembers: 50
delta Quality: 1`
)

func newValidator(text string) *validator {
	v := &validator{regex: map[string]*regexp.Regexp{}, sets: map[string][][]string{}, deltas: map[string]float64{}}
	for _, line := range strings.Split(text, "\n") {
		kind, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
		attr, body, _ := strings.Cut(rest, ":")
		attr, body = strings.TrimSpace(attr), strings.TrimSpace(body)
		switch kind {
		case "regex":
			v.regex[attr] = regexp.MustCompile(body)
		case "set":
			var group []string
			for _, s := range strings.Split(body, "|") {
				group = append(group, strings.ToLower(strings.TrimSpace(s)))
			}
			v.sets[attr] = append(v.sets[attr], group)
		case "delta":
			d, err := strconv.ParseFloat(body, 64)
			if err != nil {
				panic("e2ebench: bad delta rule " + line)
			}
			v.deltas[attr] = d
		}
	}
	return v
}

func (v *validator) correct(attr, got, want string) bool {
	if got == "" {
		return false
	}
	if got == want {
		return true
	}
	if d, ok := v.deltas[attr]; ok {
		g, err1 := strconv.ParseFloat(got, 64)
		w, err2 := strconv.ParseFloat(want, 64)
		if err1 == nil && err2 == nil && math.Abs(g-w) <= d {
			return true
		}
	}
	if re, ok := v.regex[attr]; ok {
		if strings.Join(re.FindAllString(got, -1), "") == strings.Join(re.FindAllString(want, -1), "") {
			return true
		}
	}
	in := func(group []string, s string) bool {
		s = strings.ToLower(strings.TrimSpace(s))
		for _, g := range group {
			if g == s {
				return true
			}
		}
		return false
	}
	for _, group := range v.sets[attr] {
		if in(group, got) && in(group, want) {
			return true
		}
	}
	return false
}

// score accumulates the paper's precision/recall/F1 over missing cells.
type score struct{ missing, imputed, correct int }

// add scores one output tuple against its ground truth; in marks the
// cells that were missing.
func (s *score) add(v *validator, attrs []string, in, out, truth []string) {
	for a := range in {
		if in[a] != "" {
			continue
		}
		s.missing++
		if out[a] == "" {
			continue
		}
		s.imputed++
		if v.correct(attrs[a], out[a], truth[a]) {
			s.correct++
		}
	}
}

func (s score) f1() float64 {
	if s.imputed == 0 || s.missing == 0 || s.correct == 0 {
		return 0
	}
	p := float64(s.correct) / float64(s.imputed)
	r := float64(s.correct) / float64(s.missing)
	return 2 * p * r / (p + r)
}
