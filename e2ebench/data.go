package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	renuver "repro"
)

// datasetSeed fixes the generated relations (and the restaurant
// split): the paper evaluates fixed datasets under varied missing-value
// injections, so --seed picks the nulled cells, their order and the
// deltas, never the relation itself. A different relation per seed
// would move Σ's size, and with it the cost of every run, by far more
// than any bound.
const datasetSeed = 1

// table is the benchmark's own view of a relation: attribute names, a
// numeric flag per attribute, and rows of cells where "" is a null.
type table struct {
	attrs   []string
	numeric []bool
	rows    [][]string
}

// generate builds the named synthetic relation and converts it to a
// table, inferring numeric attributes from the values themselves.
func generate(name string, n int) (*table, error) {
	rel, err := renuver.GenerateDataset(name, n, datasetSeed)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", name, err)
	}
	schema := rel.Schema()
	t := &table{}
	for a := 0; a < schema.Len(); a++ {
		t.attrs = append(t.attrs, schema.Attr(a).Name)
	}
	for i := 0; i < rel.Len(); i++ {
		row := make([]string, schema.Len())
		for a, v := range rel.Row(i) {
			if !v.IsNull() {
				row[a] = v.String()
			}
		}
		t.rows = append(t.rows, row)
	}
	t.numeric = make([]bool, len(t.attrs))
	for a := range t.attrs {
		t.numeric[a] = true
		for _, row := range t.rows {
			if row[a] == "" {
				continue
			}
			if _, err := strconv.ParseFloat(row[a], 64); err != nil {
				t.numeric[a] = false
				break
			}
		}
	}
	return t, nil
}

// writeCSV writes a header and rows; "" cells are the missing value.
func writeCSV(path string, attrs []string, rows [][]string) error {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(attrs); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// readCSV reads a file written by the program and checks its header.
func readCSV(path string, attrs []string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(recs) == 0 || len(recs[0]) != len(attrs) {
		return nil, fmt.Errorf("read %s: header %v, want %v", path, recs, attrs)
	}
	for a, name := range attrs {
		if recs[0][a] != name {
			return nil, fmt.Errorf("read %s: header %v, want %v", path, recs[0], attrs)
		}
	}
	return recs[1:], nil
}

// jsonTuple renders one row as a JSON object in attribute order; numeric
// cells are JSON numbers, strings JSON strings, "" the JSON null.
func jsonTuple(buf *bytes.Buffer, t *table, row []string) {
	buf.WriteByte('{')
	for a, v := range row {
		if a > 0 {
			buf.WriteByte(',')
		}
		name, _ := json.Marshal(t.attrs[a])
		buf.Write(name)
		buf.WriteByte(':')
		switch {
		case v == "":
			buf.WriteString("null")
		case t.numeric[a]:
			buf.WriteString(v)
		default:
			s, _ := json.Marshal(v)
			buf.Write(s)
		}
	}
	buf.WriteByte('}')
}

// cloneRows deep-copies rows so later writes cannot alias them.
func cloneRows(rows [][]string) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// maskFolds deals the non-null cells of every attribute, in an order
// the seed shuffles, round-robin into folds copies of rows and blanks
// each cell in its copy. Every cell is missing in exactly one copy, so
// each seed scores the same cells; each copy misses 1/folds of every
// attribute's cells at rows drawn at random (missing completely at
// random, the paper's Sec. 6 protocol, stratified by attribute). It
// returns the copies and the number of cells blanked in all.
func maskFolds(rng *rand.Rand, rows [][]string, folds int) ([][][]string, int) {
	out := make([][][]string, folds)
	for f := range out {
		out[f] = cloneRows(rows)
	}
	dealt := 0
	for a := range rows[0] {
		var present []int
		for r, row := range rows {
			if row[a] != "" {
				present = append(present, r)
			}
		}
		rng.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
		for _, r := range present {
			out[dealt%folds][r][a] = ""
			dealt++
		}
	}
	return out, dealt
}
