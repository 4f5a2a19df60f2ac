package main

// The references: a plain net/http implementation of dmfserve's three
// prediction endpoints, serving the same checkpoint, and a plain SGD
// loop over the same measurements. They are part of the benchmark, not
// of the program, so they stay the same from one version of the program
// to the next. Each timed measurement alternates between the program
// and its reference in short slices, and the figures are the program's
// over the reference's: the host's speed moves both alike (see
// README.md).

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The references' figures on the quiet two-vCPU reference box: the
// server's to the same client on serve-frozen's model, the trainer's on
// Meridian n=2500. The metrics are the program's ratio to its reference
// scaled by these, so they read as the program's own figures on that
// box.
const (
	refRequestsPerS   = 12000
	refLatencyP50MS   = 0.14
	refLatencyP90MS   = 0.22
	refTrainUpdatesPS = 2.4e6
)

// serveReference loads the checkpoint chain at ckptPath and serves
// GET /healthz, GET /predict, POST /predict and GET /rank on addr until
// the process is killed.
func serveReference(addr, ckptPath string) error {
	_, ref, err := loadChain(ckptPath)
	if err != nil {
		return err
	}
	n := len(ref.u) / ref.rank
	node := func(s string) (int, error) {
		i, err := strconv.Atoi(s)
		if err != nil || i < 0 || i >= n {
			return 0, fmt.Errorf("bad node %q", s)
		}
		return i, nil
	}
	reply := func(w http.ResponseWriter, body []byte) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		reply(w, []byte("{\"status\":\"ok\"}\n"))
	})
	mux.HandleFunc("GET /predict", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		i, err1 := node(q.Get("i"))
		j, err2 := node(q.Get("j"))
		if err1 != nil || err2 != nil {
			http.Error(w, "bad pair", http.StatusBadRequest)
			return
		}
		s := ref.score(i, j)
		out := fmt.Appendf(nil, `{"class":%q,"i":%d,"j":%d,"score":`, classOf(s), i, j)
		reply(w, append(strconv.AppendFloat(out, s, 'g', -1, 64), '}', '\n'))
	})
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Pairs [][2]int `json:"pairs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		classes := make([]string, len(req.Pairs))
		scores := make([]string, len(req.Pairs))
		for k, p := range req.Pairs {
			if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
				http.Error(w, "bad pair", http.StatusBadRequest)
				return
			}
			s := ref.score(p[0], p[1])
			classes[k] = strconv.Quote(classOf(s))
			scores[k] = strconv.FormatFloat(s, 'g', -1, 64)
		}
		reply(w, fmt.Appendf(nil, "{\"classes\":[%s],\"scores\":[%s]}\n",
			strings.Join(classes, ","), strings.Join(scores, ",")))
	})
	mux.HandleFunc("GET /rank", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		i, err := node(q.Get("i"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var cands []int
		for _, part := range strings.Split(q.Get("candidates"), ",") {
			j, err := node(part)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			cands = append(cands, j)
		}
		type scored struct {
			j int
			s float64
		}
		ranked := make([]scored, len(cands))
		for k, j := range cands {
			ranked[k] = scored{j, ref.score(i, j)}
		}
		sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].s > ranked[b].s })
		out := fmt.Appendf(nil, `{"i":%d,"ranked":[`, i)
		for k, r := range ranked {
			if k > 0 {
				out = append(out, ',')
			}
			out = strconv.AppendInt(out, int64(r.j), 10)
		}
		reply(w, append(out, ']', '}', '\n'))
	})
	return http.ListenAndServe(addr, mux)
}

// refTrainer is a plain SGD loop over a dataset's neighbor measurements
// (rank 10, logistic loss on the classes at tau), the reference for
// Session.Run. It copies the measurements it reads, so none of the
// program's code runs in it.
type refTrainer struct {
	n, k, rank int
	tau        float64
	d          []float64 // n×n measurements, row-major
	nbr        []int32   // n×k neighbor ids
	u, v       []float64 // n×rank factors
	rng        *rand.Rand
}

func newRefTrainer(n, k, rank int, tau float64, at func(i, j int) float64) *refTrainer {
	t := &refTrainer{n: n, k: k, rank: rank, tau: tau, d: make([]float64, n*n),
		nbr: make([]int32, n*k), u: make([]float64, n*rank), v: make([]float64, n*rank),
		rng: rand.New(rand.NewSource(1))}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			t.d[i*n+j] = at(i, j)
		}
		for q := 0; q < k; q++ {
			t.nbr[i*k+q] = int32(t.rng.Intn(n))
		}
	}
	for q := range t.u {
		t.u[q], t.v[q] = t.rng.Float64(), t.rng.Float64()
	}
	return t
}

// rate runs steps updates and returns updates per second.
func (t *refTrainer) rate(steps int) float64 {
	const lr, lambda = 0.001, 0.1
	start := time.Now()
	for s := 0; s < steps; s++ {
		i := t.rng.Intn(t.n)
		j := int(t.nbr[i*t.k+t.rng.Intn(t.k)])
		x := t.d[i*t.n+j]
		if x != x || i == j {
			continue
		}
		y := -1.0
		if x <= t.tau {
			y = 1
		}
		ui := t.u[i*t.rank : (i+1)*t.rank]
		vj := t.v[j*t.rank : (j+1)*t.rank]
		p := 0.0
		for q := range ui {
			p += ui[q] * vj[q]
		}
		g := -y / (1 + math.Exp(y*p))
		for q := range ui {
			a, b := ui[q], vj[q]
			ui[q] -= lr * (g*b + lambda*a)
			vj[q] -= lr * (g*a + lambda*b)
		}
	}
	return float64(steps) / time.Since(start).Seconds()
}
