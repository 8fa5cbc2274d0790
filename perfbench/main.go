// Command perfbench drives the built vs2serve and vs2d binaries through
// three workloads and prints one JSON result line. Run it through
// run.sh, which builds the binaries from the checkout first:
//
//	bash perfbench/run.sh --workload tax-forms --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with
// tracing off; with --trace 1 it runs the same workload once with the
// server's metrics dump on, then wraps its own spans around each
// layer's entry points on the same inputs and prints the per-layer
// metrics. Every answer of every run is checked (see check.go). See
// README.md for what each metric means and which should move when.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed of the generated corpus")
		seconds = flag.Int("seconds", 20, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of the end-to-end metrics")
		binDir  = flag.String("bin", ".bench_build/bin", "directory holding the built vs2serve and vs2d")
		work    = flag.String("work", ".bench_build", "scratch directory for state, journals and traces")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	for _, b := range []string{"vs2serve", "vs2d"} {
		if _, err := os.Stat(filepath.Join(*binDir, b)); err != nil {
			return fmt.Errorf("binary missing: %w", err)
		}
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	spec := w.spec
	if w.online {
		spec.n = onlineConns * onlineRatePerConn * *seconds
	}
	c, err := newCorpus(spec, *seed)
	if err != nil {
		return err
	}
	ref, err := reference(c)
	if err != nil {
		return err
	}
	e := &env{binDir: *binDir, workDir: workDir, corpus: c, checker: newChecker(c, ref)}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d documents, host_cpus %d\n", w.name, *seed, len(c.docs), runtime.NumCPU())

	var t tally
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = e.traced(w, &t, filepath.Join(*work, "trace-"+w.name+".jsonl"))
	} else {
		metrics, err = e.endToEnd(w, &t, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		return err
	}
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check:", p)
	}
	if t.degraded > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d answers carried degradation notes (counted, not compared)\n", t.degraded)
	}
	if len(t.lateness) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: open-loop generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
			percentile(t.lateness, 50), percentile(t.lateness, 99), percentile(t.lateness, 100))
	}
	res := result{
		Correct:   len(t.problems) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd times the workload with tracing off: a few bare start-ups,
// then whole rounds, each on a fresh server, until the run length is
// spent. The online workload's one stream lasts the run length.
//
// Each metric but setup_s reports its best round. The host's CPUs are
// shared with other tenants: its steal time (printed below) has ranged
// from under 1% to 29% of a 20 s run, the CPU time one poster costs
// from 11 to 18 ms, and a burst slows every document of the rounds it
// hits. The best round is the one the bursts disturbed least, and it
// repeats from run to run where a median of rounds does not.
func (e *env) endToEnd(w workload, t *tally, length time.Duration) (map[string]metric, error) {
	for i := 0; i < setupProbes; i++ {
		if err := e.probeSetup(w, t); err != nil {
			return nil, err
		}
	}
	steal0, total0, stealOK := hostCPU()
	start := time.Now()
	for len(t.rounds) == 0 || (!w.online && time.Since(start) < length) {
		if _, err := e.runRound(w, t); err != nil {
			return nil, err
		}
	}
	var rates, p50s, p99s, cpus, rss []float64
	samples := 0
	for _, r := range t.rounds {
		rates = append(rates, r.rate)
		p50s = append(p50s, percentile(r.latencies, 50))
		p99s = append(p99s, percentile(r.latencies, 99))
		cpus = append(cpus, r.cpuMS)
		rss = append(rss, r.rssMB)
		samples += len(r.latencies)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, %d latency samples, %d start-ups; docs/s by round %.2f\n",
		len(t.rounds), samples, len(t.setups), rates)
	if steal1, total1, ok := hostCPU(); ok && stealOK && total1 > total0 {
		fmt.Fprintf(os.Stderr, "perfbench: host CPU steal during the rounds: %.1f%%\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	return map[string]metric{
		"setup_s":        {median(t.setups), "s"},
		"docs_per_s":     {slices.Max(rates), "1/s"},
		"latency_p50_ms": {slices.Min(p50s), "ms"},
		"latency_p99_ms": {slices.Min(p99s), "ms"},
		"cpu_ms_per_doc": {slices.Min(cpus), "ms"},
		"peak_rss_mb":    {slices.Min(rss), "MiB"},
		"entity_f1":      {t.pr.F1(), "ratio"},
	}, nil
}

// traced runs the workload once through its binary with the metrics
// dump on, then measures each layer on the same inputs.
func (e *env) traced(w workload, t *tally, traceOut string) (map[string]metric, error) {
	srv, err := e.runRound(w, t, "-metrics")
	if err != nil {
		return nil, err
	}
	snap, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	queueWait, retries := serverLayers(snap)

	ls, err := inProcessLayers(e.corpus, e.checker.ref, e.workDir, traceOut)
	if err != nil {
		return nil, err
	}
	if ls.mismatches > 0 {
		t.problems = append(t.problems, fmt.Sprintf("%d documents: layer-by-layer entities differ from the pipeline's", ls.mismatches))
	}
	rtt, pipeline, err := shardHop(filepath.Join(e.binDir, "vs2d"), e.corpus, w.probeDocs)
	if err != nil {
		return nil, err
	}

	n := float64(ls.docs)
	perDoc := func(d time.Duration) float64 { return ms(d) / n }
	hitRatio := 0.0
	if ls.lookups > 0 {
		hitRatio = float64(ls.hits) / float64(ls.lookups)
	}
	insertUS := 0.0
	if ls.inserts > 0 {
		insertUS = us(ls.insert) / float64(ls.inserts)
	}
	keptRatio := 0.0
	if ls.candidates > 0 {
		keptRatio = float64(ls.kept) / float64(ls.candidates)
	}
	return map[string]metric{
		"doc.decode_us":          {us(ls.decode) / n, "us"},
		"doc.validate_us":        {us(ls.validate) / n, "us"},
		"template.probe_us":      {us(ls.probe) / n, "us"},
		"template.insert_us":     {insertUS, "us"},
		"template.lookups":       {float64(ls.lookups), "count"},
		"template.hits":          {float64(ls.hits), "count"},
		"template.hit_ratio":     {hitRatio, "ratio"},
		"segment.ms":             {perDoc(ls.segment), "ms"},
		"segment.split_ms":       {perDoc(ls.split), "ms"},
		"segment.merge_ms":       {perDoc(ls.merge), "ms"},
		"segment.blocks":         {float64(ls.blocks) / n, "count"},
		"segment.alloc_kb":       {float64(ls.segAlloc) / 1024 / n, "KiB"},
		"search.ms":              {perDoc(ls.search), "ms"},
		"search.candidates":      {float64(ls.candidates) / n, "count"},
		"search.alloc_kb":        {float64(ls.searchAlloc) / 1024 / n, "KiB"},
		"select.ms":              {perDoc(ls.sel), "ms"},
		"select.kept_ratio":      {keptRatio, "ratio"},
		"render.us":              {us(ls.render) / n, "us"},
		"journal.record_us":      {us(ls.record) / n, "us"},
		"journal.fsyncs_per_doc": {float64(ls.fsyncs) / n, "count"},
		"serve.queue_wait_ms":    {queueWait, "ms"},
		"serve.retries":          {float64(retries), "count"},
		"shard.roundtrip_ms":     {rtt, "ms"},
		"shard.wire_ms":          {rtt - pipeline, "ms"},
		"frontend.emit_wait_ms":  {mean(t.rounds[0].latencies) - rtt, "ms"},
	}, nil
}

// workloadNames lists the workloads for usage messages.
func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, " | ")
}
