package main

import (
	"math"
	"testing"
)

func TestMannWhitneyAUC(t *testing.T) {
	cases := []struct {
		name   string
		labels []bool
		scores []float64
		want   float64
	}{
		{"perfect", []bool{false, false, true, true}, []float64{0.1, 0.2, 0.8, 0.9}, 1},
		{"inverted", []bool{true, true, false, false}, []float64{0.1, 0.2, 0.8, 0.9}, 0},
		// Positives {0.4, 0.8}, negatives {0.1, 0.5}: of the four
		// positive/negative pairs, three order correctly.
		{"three of four", []bool{false, true, false, true}, []float64{0.1, 0.4, 0.5, 0.8}, 0.75},
		// All scores tied: every pair counts one half.
		{"all tied", []bool{true, false, true, false}, []float64{1, 1, 1, 1}, 0.5},
		// Positive 0.5 ties negative 0.5 (½) and beats 0.2 (1); positive
		// 0.9 beats both (2): 3.5 of 4.
		{"one tie", []bool{true, false, true, false}, []float64{0.5, 0.5, 0.9, 0.2}, 0.875},
	}
	for _, c := range cases {
		if got := mannWhitneyAUC(c.labels, c.scores); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: AUC %v, want %v", c.name, got, c.want)
		}
	}
	if got := mannWhitneyAUC([]bool{true, true}, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("one class only: AUC %v, want NaN", got)
	}
}

// testModel is a 3-node, rank-2 model: score(i, j) = uᵢ·vⱼ.
func testModel() *refModel {
	return &refModel{rank: 2,
		u: []float64{1, 0, 0, 1, 0.5, 0.5},
		v: []float64{1, 2, -1, 0.5, 3, -4},
	}
}

func TestVerifierPredict(t *testing.T) {
	vf := verifier{ref: testModel()}
	// score(0,1) = 1·(-1) + 0·0.5 = -1; score(1,0) = 2.
	if err := vf.predict(0, 1, []byte(`{"class":"bad","i":0,"j":1,"score":-1}`+"\n")); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	if err := vf.predict(1, 0, []byte(`{"class":"good","i":1,"j":0,"score":2}`)); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	bad := map[string]string{
		"perturbed score": `{"class":"bad","i":0,"j":1,"score":-1.000001}`,
		"wrong class":     `{"class":"good","i":0,"j":1,"score":-1}`,
		"wrong pair":      `{"class":"bad","i":1,"j":0,"score":-1}`,
		"not finite":      `{"class":"bad","i":0,"j":1,"score":NaN}`,
		"missing score":   `{"class":"bad","i":0,"j":1}`,
	}
	for name, body := range bad {
		if err := vf.predict(0, 1, []byte(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestVerifierPredictBatch(t *testing.T) {
	vf := verifier{ref: testModel()}
	pairs := [][2]int{{0, 1}, {2, 0}}
	// score(2,0) = 0.5·1 + 0.5·2 = 1.5.
	if err := vf.predictBatch(pairs, []byte(`{"classes":["bad","good"],"scores":[-1,1.5]}`)); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	for name, body := range map[string]string{
		"perturbed score": `{"classes":["bad","good"],"scores":[-1,1.5000001]}`,
		"wrong class":     `{"classes":["bad","bad"],"scores":[-1,1.5]}`,
		"short":           `{"classes":["bad"],"scores":[-1]}`,
	} {
		if err := vf.predictBatch(pairs, []byte(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestVerifierRank(t *testing.T) {
	vf := verifier{ref: testModel()}
	// From node 2: score(2,0) = 1.5, score(2,1) = -0.25, score(2,2) = -0.5.
	if err := vf.rank(2, []int{1, 0}, []byte(`{"i":2,"ranked":[0,1]}`)); err != nil {
		t.Errorf("correct ranking rejected: %v", err)
	}
	for name, body := range map[string]string{
		"misordered":      `{"i":2,"ranked":[1,0]}`,
		"not a candidate": `{"i":2,"ranked":[0,2]}`,
		"repeated":        `{"i":2,"ranked":[0,0]}`,
		"short":           `{"i":2,"ranked":[0]}`,
		"wrong source":    `{"i":1,"ranked":[0,1]}`,
	} {
		if err := vf.rank(2, []int{1, 0}, []byte(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestPromDeltaMean(t *testing.T) {
	d := promDelta{
		`dmf_http_request_seconds_sum{endpoint="GET /predict"}`:   0.0015,
		`dmf_http_request_seconds_count{endpoint="GET /predict"}`: 300,
	}
	// 1.5 ms over 300 requests = 5 µs.
	if got := d.mean("dmf_http_request_seconds", `{endpoint="GET /predict"}`); math.Abs(got-5e-6) > 1e-15 {
		t.Errorf("handler mean %v, want 5e-6", got)
	}
	// A series that did not move is absent from the delta.
	if got := d.mean("dmf_http_request_seconds", `{endpoint="GET /rank"}`); got != 0 {
		t.Errorf("mean of an absent series %v, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile %v = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
}
