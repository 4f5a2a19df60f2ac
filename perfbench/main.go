// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against dmfserve binaries and in-process sessions built
// from the same source tree, checks every answer against values it
// recomputes itself, and prints the workload's metrics as the last line
// of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, and the run records spans around every call
// into a layer (written to <out>/traces). See README.md for the
// workloads, the metrics and how each layer metric relates to an
// end-to-end one. Run it through run.sh, which builds both programs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readSpec reads the metric lists of BENCHMARK.json: every untraced run
// prints the end-to-end metrics, every traced run the per-layer ones.
func readSpec(path string) (endToEnd, perLayer []metricDef, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, spec.PerLayer, nil
}

// bench is one run's state.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	serveBin string
	dir      string // this run's scratch directory, removed at the end
	hc       *http.Client
	tr       *tracer // nil in untraced runs

	e2e        map[string]float64
	layer      map[string]float64
	setupTimes []float64 // serve-frozen: seconds from exec to serving, per fresh start
	startRates []float64 // serve-frozen: start-up training updates/s, per fresh start

	attempted, failed int
	firstErr          error
	problems          []string // failed checks other than per-operation ones
}

// windowLen is the length of a timed window. A traced run times every
// window twice, untraced and traced, for the tracing overhead, so each
// gets half of the run.
func (b *bench) windowLen() time.Duration {
	if b.tr != nil {
		return b.seconds / 2
	}
	return b.seconds
}

func (b *bench) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// fail records a failed check of the program's output.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// count adds operations, failed ones included.
func (b *bench) count(attempted, failed int, err error) {
	b.attempted += attempted
	b.failed += failed
	if err != nil && b.firstErr == nil {
		b.firstErr = err
		fmt.Fprintln(os.Stderr, "perfbench: first failed operation:", err)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for k, x := range xs {
		parts[k] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

var workloads = map[string]func(*bench, context.Context) error{
	"serve-frozen":  (*bench).serveFrozen,
	"train-cluster": (*bench).trainCluster,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "serve-frozen or train-cluster")
		seed     = flag.Int64("seed", 1, "seed of the workload's inputs")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = per-layer metrics with spans, 0 = end-to-end metrics")
		serveBin = flag.String("serve-bin", "", "dmfserve binary")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics")
		out      = flag.String("out", ".bench_build", "directory for scratch files and traces")
		refCkpt  = flag.String("reference", "", "serve this checkpoint as the reference server on -addr (started by the benchmark itself)")
		addr     = flag.String("addr", "", "the reference server's address")
	)
	flag.Parse()
	if *refCkpt != "" {
		fmt.Fprintln(os.Stderr, "perfbench reference server:", serveReference(*addr, *refCkpt))
		return 1
	}
	body, ok := workloads[*workload]
	bin, err := filepath.Abs(*serveBin)
	if !ok || *serveBin == "" || err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload (serve-frozen, train-cluster), -serve-bin, -seconds ≥ 1, -trace 0|1\n")
		return 2
	}
	endToEnd, perLayer, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	defer killChildren()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		serveBin: bin,
		dir:      dir,
		hc:       newHTTPClient(),
		e2e:      make(map[string]float64),
		layer:    make(map[string]float64),
	}
	defs := endToEnd
	if *trace == 1 {
		b.tr = newTracer()
		defs = perLayer
	}
	if err := body(b, ctx); err != nil {
		killChildren()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	killChildren()
	if b.tr != nil {
		tdir := filepath.Join(*out, "traces")
		path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.ndjson", *workload, *seed))
		err := os.MkdirAll(tdir, 0o755)
		if err == nil {
			err = b.tr.write(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
		b.note("%d spans written to %s (%d dropped past the cap)", len(b.tr.spans), path, b.tr.dropped)
	}
	values := b.e2e
	if *trace == 1 {
		values = b.layer
	}
	res := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "perfbench: %s measured no %s\n", *workload, strings.Join(missing, ", "))
		return 1
	}
	if res.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
