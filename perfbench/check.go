package main

// The benchmark's own checkers: they recompute what the program answers
// from the program's persisted factors, so a wrong answer is caught
// without trusting the code that produced it. check_test.go pins each
// against hand-computed cases.

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// refModel holds coordinate factors read from a checkpoint: score(i, j)
// is uᵢ·vⱼ, computed here with a plain loop.
type refModel struct {
	rank int
	u, v []float64
}

func (m *refModel) score(i, j int) float64 {
	ui := m.u[i*m.rank : (i+1)*m.rank]
	vj := m.v[j*m.rank : (j+1)*m.rank]
	s := 0.0
	for k := range ui {
		s += ui[k] * vj[k]
	}
	return s
}

// scoreTol is the relative tolerance between a served score and the
// recomputed one: the kernel may sum in another order, nothing more.
const scoreTol = 1e-9

func scoreClose(got, want float64) bool {
	return math.Abs(got-want) <= scoreTol*math.Max(math.Abs(want), 1e-12)
}

// classOf is the sign rule: strictly positive scores are good.
func classOf(score float64) string {
	if score > 0 {
		return "good"
	}
	return "bad"
}

// mannWhitneyAUC is the probability that a random positive outscores a
// random negative, ties counting one half, computed from average ranks.
// It returns NaN when either class is empty.
func mannWhitneyAUC(labels []bool, scores []float64) float64 {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	var rankSum float64
	var pos, neg int
	for lo := 0; lo < len(idx); {
		hi := lo
		for hi+1 < len(idx) && scores[idx[hi+1]] == scores[idx[lo]] {
			hi++
		}
		avg := float64(lo+hi)/2 + 1 // ranks are 1-based
		for k := lo; k <= hi; k++ {
			if labels[idx[k]] {
				rankSum += avg
				pos++
			} else {
				neg++
			}
		}
		lo = hi + 1
	}
	if pos == 0 || neg == 0 {
		return math.NaN()
	}
	return (rankSum - float64(pos)*float64(pos+1)/2) / (float64(pos) * float64(neg))
}

// jsonField returns the raw value of "key" in a flat JSON object as the
// handlers write it (no whitespace, no nested objects).
func jsonField(body []byte, key string) ([]byte, error) {
	pat := make([]byte, 0, len(key)+3)
	pat = append(append(append(pat, '"'), key...), '"', ':')
	at := bytes.Index(body, pat)
	if at < 0 {
		return nil, fmt.Errorf("no %q in %.80q", key, body)
	}
	rest := body[at+len(pat):]
	depth := 0
	inStr := false
	for k, c := range rest {
		switch {
		case inStr:
			if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '[':
			depth++
		case c == ']':
			depth--
			if depth == 0 {
				return rest[:k+1], nil
			}
		case (c == ',' || c == '}') && depth == 0:
			return rest[:k], nil
		}
	}
	return nil, fmt.Errorf("unterminated %q in %.80q", key, body)
}

// jsonList splits a raw JSON array of scalars into its elements.
func jsonList(raw []byte) ([][]byte, error) {
	if len(raw) < 2 || raw[0] != '[' || raw[len(raw)-1] != ']' {
		return nil, fmt.Errorf("not a list: %.80q", raw)
	}
	inner := raw[1 : len(raw)-1]
	if len(inner) == 0 {
		return nil, nil
	}
	return bytes.Split(inner, []byte{','}), nil
}

func jsonString(raw []byte) (string, error) {
	if len(raw) < 2 || raw[0] != '"' || raw[len(raw)-1] != '"' {
		return "", fmt.Errorf("not a string: %.80q", raw)
	}
	return string(raw[1 : len(raw)-1]), nil
}

func jsonFloat(raw []byte) (float64, error) {
	f, err := strconv.ParseFloat(string(raw), 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("bad number %.40q", raw)
	}
	return f, nil
}

func jsonInt(raw []byte) (int, error) { return strconv.Atoi(string(raw)) }

// verifier checks response bodies against a reference model: every
// score must equal the recomputed uᵢ·vⱼ, every class the sign of its
// score, and a ranking must be the candidate set in descending
// recomputed score.
type verifier struct {
	ref *refModel
}

func (vf verifier) checkScore(i, j int, score float64, class string) error {
	if class != classOf(score) {
		return fmt.Errorf("(%d,%d): class %q for score %g", i, j, class, score)
	}
	if want := vf.ref.score(i, j); !scoreClose(score, want) {
		return fmt.Errorf("(%d,%d): score %.17g, recomputed %.17g", i, j, score, want)
	}
	return nil
}

func (vf verifier) predict(i, j int, body []byte) error {
	var gi, gj int
	raw, err := jsonField(body, "i")
	if err == nil {
		gi, err = jsonInt(raw)
	}
	if err == nil {
		raw, err = jsonField(body, "j")
	}
	if err == nil {
		gj, err = jsonInt(raw)
	}
	if err != nil {
		return err
	}
	if gi != i || gj != j {
		return fmt.Errorf("asked (%d,%d), answered (%d,%d)", i, j, gi, gj)
	}
	raw, err = jsonField(body, "score")
	if err != nil {
		return err
	}
	score, err := jsonFloat(raw)
	if err != nil {
		return err
	}
	raw, err = jsonField(body, "class")
	if err != nil {
		return err
	}
	class, err := jsonString(raw)
	if err != nil {
		return err
	}
	return vf.checkScore(i, j, score, class)
}

func (vf verifier) predictBatch(pairs [][2]int, body []byte) error {
	raw, err := jsonField(body, "scores")
	if err != nil {
		return err
	}
	scores, err := jsonList(raw)
	if err != nil {
		return err
	}
	if raw, err = jsonField(body, "classes"); err != nil {
		return err
	}
	classes, err := jsonList(raw)
	if err != nil {
		return err
	}
	if len(scores) != len(pairs) || len(classes) != len(pairs) {
		return fmt.Errorf("batch of %d pairs answered with %d scores, %d classes", len(pairs), len(scores), len(classes))
	}
	for k, p := range pairs {
		s, err := jsonFloat(scores[k])
		if err != nil {
			return err
		}
		c, err := jsonString(classes[k])
		if err != nil {
			return err
		}
		if err := vf.checkScore(p[0], p[1], s, c); err != nil {
			return fmt.Errorf("pair %d: %w", k, err)
		}
	}
	return nil
}

func (vf verifier) rank(i int, cands []int, body []byte) error {
	raw, err := jsonField(body, "i")
	if err != nil {
		return err
	}
	if gi, err := jsonInt(raw); err != nil || gi != i {
		return fmt.Errorf("rank for %d answered for %.20q", i, raw)
	}
	if raw, err = jsonField(body, "ranked"); err != nil {
		return err
	}
	items, err := jsonList(raw)
	if err != nil {
		return err
	}
	if len(items) != len(cands) {
		return fmt.Errorf("rank of %d candidates answered with %d", len(cands), len(items))
	}
	want := make(map[int]int, len(cands))
	for _, c := range cands {
		want[c]++
	}
	prev := math.Inf(1)
	for k, it := range items {
		j, err := jsonInt(it)
		if err != nil {
			return err
		}
		if want[j] == 0 {
			return fmt.Errorf("rank position %d: %d is not a remaining candidate", k, j)
		}
		want[j]--
		s := vf.ref.score(i, j)
		if s > prev && !scoreClose(s, prev) {
			return fmt.Errorf("rank position %d: node %d scores %.17g above its predecessor's %.17g", k, j, s, prev)
		}
		prev = s
	}
	return nil
}

// promDelta is the change of cumulative series between two scrapes, as
// load.DeltaCounters gives it: a series that did not move is absent and
// reads 0.
type promDelta map[string]float64

// mean is a histogram's sum delta over its count delta; 0 when nothing
// was observed.
func (d promDelta) mean(name, labels string) float64 {
	c := d[name+"_count"+labels]
	if c == 0 {
		return 0
	}
	return d[name+"_sum"+labels] / c
}

// quantile is linear interpolation between order statistics of sorted
// xs: the same estimator for every timing the benchmark reports.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
