// Command perfbench is geoserp's end-to-end benchmark. One process builds
// the system under test from its public constructors, drives it over real
// loopback sockets, checks its outputs, and prints every metric by name
// and unit, with the result as one JSON object on the last line:
//
//	perfbench --workload campaign|serve-mono|serve-cluster --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics from an untraced run; --trace 1
// reruns the workload with benchmark-owned spans at each layer seam and
// reports the per-layer metrics, writing the spans under --out. README.md
// in this directory gives each workload's rationale and each metric's
// layer. perfbench/run.sh builds the binary from the checkout and runs it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"geoserp/internal/serp"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload from untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"throughput_rps", "1/s"},
	{"p50_ms", "ms"},
}

// perLayer are the traced run's metrics. A layer a workload bypasses
// reports 0 (see README.md).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"loadgen.p99_ms", "ms"},
		{"loadgen.lag_p99_ms", "ms"},
		{"loadgen.sent", "count"},
		{"loadgen.max_rate_rps", "1/s"},
		{"serpserver.admission_wait_p50_us", "us"},
		{"serpserver.admission_wait_p99_us", "us"},
		{"serpserver.shed", "count"},
		{"serpserver.handler_p50_us", "us"},
		{"serpserver.render_write_p50_us", "us"},
	}
	for _, st := range engineStages {
		defs = append(defs, metricDef{"engine." + st + "_p50_us", "us"})
	}
	for _, st := range engineStages {
		defs = append(defs, metricDef{"engine." + st + "_share", "ratio"})
	}
	defs = append(defs,
		metricDef{"engine.ratelimited", "count"},
		metricDef{"router.retrieve_p50_us", "us"},
		metricDef{"router.retrieve_p99_us", "us"},
		metricDef{"router.leg_p50_us", "us"},
		metricDef{"router.leg_p99_us", "us"},
		metricDef{"router.shard_server_p50_us", "us"},
		metricDef{"router.leg_overhead_p50_us", "us"},
		metricDef{"router.wire_bytes_per_leg", "B"},
		metricDef{"router.fanout_skew_p99_us", "us"},
		metricDef{"router.failovers", "count"},
		metricDef{"router.hedges", "count"},
		metricDef{"browser.fetch_p50_us", "us"},
		metricDef{"browser.fetch_p99_us", "us"},
		metricDef{"browser.retries", "count"},
		metricDef{"crawler.round_p50_ms", "ms"},
		metricDef{"crawler.round_p99_ms", "ms"},
		metricDef{"serp.render_us", "us"},
		metricDef{"serp.parse_us", "us"},
		metricDef{"storage.save_ms", "ms"},
		metricDef{"storage.load_ms", "ms"},
		metricDef{"storage.bytes_per_obs", "B"},
		metricDef{"analysis.dataset_ms", "ms"},
		metricDef{"analysis.figures_ms", "ms"},
		metricDef{"analysis.demographics_ms", "ms"},
		metricDef{"analysis.scorecard_ms", "ms"},
		metricDef{"analysis.analyze_s", "s"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self." + l + "_us", "us"})
	}
	return append(defs,
		metricDef{"self.crawler_us", "us"},
		metricDef{"trace.coverage_pct", "%"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

var workloads = []string{"campaign", "serve-mono", "serve-cluster"}

type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	outDir   string
}

// metricSet holds measured values with the sample count behind each.
type metricSet struct {
	vals  map[string]float64
	count map[string]int
	notes []string
}

func (m *metricSet) set(name string, v float64, n int) {
	m.vals[name] = v
	m.count[name] = n
}

func (m *metricSet) note(label, text string) { m.notes = append(m.notes, label+": "+text) }

// runResult is one run's result.
type runResult struct {
	rc      runConfig
	m       *metricSet
	out     outcomes
	correct bool
}

func newReport(rc runConfig) *runResult {
	return &runResult{rc: rc, m: &metricSet{vals: map[string]float64{}, count: map[string]int{}}}
}

func (r *runResult) set(name string, v float64, n int) { r.m.set(name, v, n) }

func (r *runResult) note(label, text string) { r.m.note(label, text) }

// serpReruns times serp.ParseHTML and serp.RenderHTML on response bodies
// captured at the seams. They are re-runs on the benchmark's thread, not
// the request path's own calls: they size the render and parse work per
// page.
func (r *runResult) serpReruns(bodies []string) {
	var parse, render sample
	for _, b := range bodies {
		t0 := time.Now()
		p, err := serp.ParseHTML(b)
		t1 := time.Now()
		if err != nil {
			continue
		}
		s := serp.RenderHTML(p)
		t2 := time.Now()
		if s == "" {
			continue
		}
		parse = append(parse, us(t1.Sub(t0)))
		render = append(render, us(t2.Sub(t1)))
	}
	r.set("serp.parse_us", parse.median(), len(parse))
	r.set("serp.render_us", render.median(), len(render))
}

func (r *runResult) writeSpans(tr *tracer) error {
	var origin time.Time
	tr.mu.Lock()
	for _, s := range tr.spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	n := len(tr.spans)
	tr.mu.Unlock()
	path := filepath.Join(r.rc.outDir, fmt.Sprintf("spans-%s-%d.jsonl", r.rc.workload, r.rc.seed))
	if err := tr.writeSpans(path, origin); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.note("spans", fmt.Sprintf("%d written to %s", n, path))
	return nil
}

// stamp identifies the hardware and build a result came from.
func stamp() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable table, the stamp, and the result line.
func (r *runResult) print(w io.Writer) error {
	defs := endToEnd
	if r.rc.trace {
		defs = perLayer
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# perfbench %s seed=%d seconds=%d trace=%v\n", r.rc.workload, r.rc.seed, r.rc.seconds, r.rc.trace)
	out := map[string]jsonMetric{}
	for _, d := range defs {
		v := r.m.vals[d.name]
		out[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(bw, "%-36s %14.4f %-6s n=%d\n", d.name, v, d.unit, r.m.count[d.name])
	}
	for _, n := range r.m.notes {
		fmt.Fprintf(bw, "# %s\n", n)
	}
	fmt.Fprintf(bw, "# attempted=%d failed=%d (transport %d, non-200 %d, wrong output %d) fail_ratio=%g\n",
		r.out.attempted, r.out.failed(), r.out.transport, r.out.non200, r.out.wrong, r.out.failRatio())
	st, err := json.Marshal(stamp())
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "# stamp %s\n", st)
	res, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, max(r.out.attempted, 1), r.out.failed(), out})
	if err != nil {
		return err
	}
	bw.Write(res)
	bw.WriteString("\n")
	return bw.Flush()
}

func main() {
	var rc runConfig
	flag.StringVar(&rc.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&rc.seed, "seed", 1, "seed for the workload's inputs")
	flag.IntVar(&rc.seconds, "seconds", 20, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&rc.outDir, "out", ".bench_build/out", "directory for the JSONL round trip and span files")
	flag.Parse()
	rc.trace = *trace == 1
	if !slices.Contains(workloads, rc.workload) || rc.seconds <= 0 || (*trace != 0 && *trace != 1) || rc.seed == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload one of", workloads, ", --seed > 0, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	run := runServe
	if rc.workload == "campaign" {
		run = runCampaign
	}
	rep, err := run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", rc.workload, err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed")
		os.Exit(1)
	}
}
