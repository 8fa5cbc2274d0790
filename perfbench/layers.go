package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vs2"
	"vs2/internal/extract"
	"vs2/internal/journal"
	"vs2/internal/obs"
	"vs2/internal/segment"
	"vs2/internal/shard"
)

// layerSums accumulates the benchmark's own spans, one set per
// document, around each layer's public entry point.
type layerSums struct {
	docs                        int
	decode, validate            time.Duration
	probe, insert               time.Duration
	lookups, hits, inserts      int
	segment, split, merge       time.Duration
	blocks                      int
	segAlloc, searchAlloc       uint64
	search, sel, render, record time.Duration
	candidates, kept            int
	fsyncs                      int64
	mismatches                  int // documents whose layer-by-layer entities differ from the pipeline's
	traces                      []vs2.SpanSnapshot
}

// inProcessLayers runs every document of the corpus through each layer
// in turn, on one goroutine, timing every call with a span:
//
//	decode → validate → template probe → segment (split, merge) →
//	template insert on a miss → search → select → render → journal
//
// The span trees are written as JSONL to traceOut.
func inProcessLayers(c *corpus, ref [][]vs2.Extraction, workDir, traceOut string) (*layerSums, error) {
	ctx := context.Background()
	seg := segment.New(segment.Options{})
	ex := extract.New(extract.Options{Weights: c.task.Weights})
	cache := vs2.NewTemplateCache(256, 0, nil)
	jm := obs.NewRegistry()
	st, err := journal.OpenState(filepath.Join(workDir, "layers.wal"), journal.StateOptions{
		Options:      journal.Options{Sync: journal.SyncAlways, Metrics: jm},
		CompactEvery: 256, // the binaries' -checkpoint default
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	var ls layerSums
	var ms runtime.MemStats
	allocated := func() uint64 { runtime.ReadMemStats(&ms); return ms.TotalAlloc }
	for i, line := range c.lines {
		tr := vs2.NewTrace("doc " + strconv.Itoa(i))
		root := tr.Root()

		sp := root.Child("doc.decode")
		d, err := vs2.DecodeDocument(line)
		sp.End()
		if err != nil {
			return nil, err
		}
		ls.decode += sp.Duration()

		sp = root.Child("doc.validate")
		err = d.Validate()
		sp.End()
		if err != nil {
			return nil, err
		}
		ls.validate += sp.Duration()

		sp = root.Child("template.probe")
		fp := cache.Fingerprint(d)
		_, hit := cache.Lookup(d, fp)
		sp.End()
		ls.probe += sp.Duration()
		ls.lookups++
		if hit {
			ls.hits++
		}

		// Segmentation always runs, hit or miss, so segment.* is the
		// cost of VS2-Segment on every document of the corpus.
		a0 := allocated()
		segSpan := root.Child("segment")
		tree, err := seg.SegmentContext(obs.WithSpan(ctx, segSpan), d)
		segSpan.End()
		ls.segAlloc += allocated() - a0
		if err != nil {
			return nil, fmt.Errorf("segment %s: %w", d.ID, err)
		}
		ls.segment += segSpan.Duration()
		ls.blocks += len(tree.Leaves())

		if !hit {
			sp = root.Child("template.insert")
			cache.Insert(d, fp, tree)
			sp.End()
			ls.insert += sp.Duration()
			ls.inserts++
		}

		blocks := tree.Leaves()
		a0 = allocated()
		sp = root.Child("search")
		cands, err := ex.SearchContext(ctx, d, blocks, c.task.Sets)
		sp.End()
		ls.searchAlloc += allocated() - a0
		if err != nil {
			return nil, fmt.Errorf("search %s: %w", d.ID, err)
		}
		ls.search += sp.Duration()
		for _, cs := range cands {
			ls.candidates += len(cs)
		}

		sp = root.Child("select")
		ents, err := ex.SelectContext(ctx, d, blocks, cands, c.task.Sets)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("select %s: %w", d.ID, err)
		}
		ls.sel += sp.Duration()
		ls.kept += len(ents)
		if !sameEntities(ents, ref[i]) {
			ls.mismatches++
		}

		sp = root.Child("render")
		out := vs2.RenderLine(vs2.BatchResult{Index: i, Doc: d, Result: &vs2.Result{Entities: ents}})
		sp.End()
		ls.render += sp.Duration()

		sp = root.Child("journal.record")
		err = st.Admit(d.ID, i)
		if err == nil {
			err = st.Complete(d.ID, out)
		}
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("journal %s: %w", d.ID, err)
		}
		ls.record += sp.Duration()

		tr.Finish()
		snap := tr.Snapshot()
		for _, ch := range snap.Children {
			if ch.Name != "segment" {
				continue
			}
			for _, g := range ch.Children {
				switch g.Name {
				case "split":
					ls.split += time.Duration(g.DurationNS)
				case "merge":
					ls.merge += time.Duration(g.DurationNS)
				}
			}
		}
		ls.traces = append(ls.traces, snap)
		ls.docs++
	}
	ls.fsyncs = jm.Snapshot().Counters["journal.fsyncs"]
	return &ls, writeTraces(traceOut, ls.traces)
}

func writeTraces(path string, traces []vs2.SpanSnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, t := range traces {
		if err := enc.Encode(t); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// shardHop sends up to n documents, one at a time, through a 2-shard
// supervisor whose children are the built vs2d in worker mode, and
// returns the mean round trip and the mean pipeline time the workers
// report for the same documents (the sum of their phase.*.ms
// histograms). With one document in flight no queue forms, so the
// difference is the wire hop: encoding, pipes and decoding.
func shardHop(vs2d string, c *corpus, n int) (rttMS, pipelineMS float64, err error) {
	worker := vs2.NewMetrics()
	sup, err := shard.New(shard.Config{
		Shards: 2,
		Start: func(i int) (*exec.Cmd, error) {
			return exec.Command(vs2d, "-worker", "-shard", strconv.Itoa(i), "-task", c.taskFlag,
				"-workers", "1", "-telemetry-interval", "100ms"), nil
		},
		OnTelemetry: func(t shard.Telemetry) {
			if t.Metrics != nil {
				worker.Merge(*t.Metrics)
			}
		},
		Stderr: io.Discard,
	})
	if err != nil {
		return 0, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	closed := false
	defer func() {
		if !closed {
			sup.Close(ctx) //nolint:errcheck // an error path already reports
		}
	}()
	for sup.Health().Live < 2 {
		if ctx.Err() != nil {
			return 0, 0, ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}

	n = min(n, len(c.lines))
	var rtt time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		line, err := sup.Do(ctx, c.docs[i].ID, c.lines[i])
		rtt += time.Since(start)
		if err != nil {
			return 0, 0, fmt.Errorf("shard hop %s: %w", c.docs[i].ID, err)
		}
		var a answer
		if err := json.Unmarshal(line, &a); err != nil || a.Error != "" || a.ID != c.docs[i].ID {
			return 0, 0, fmt.Errorf("shard hop %s: bad answer %.200s", c.docs[i].ID, line)
		}
	}
	closed = true
	if err := sup.Close(ctx); err != nil {
		return 0, 0, err
	}
	var pipeline float64
	for name, h := range worker.Snapshot().Histograms {
		if strings.HasPrefix(name, "phase.") && strings.HasSuffix(name, ".ms") {
			pipeline += h.Sum
		}
	}
	return ms(rtt) / float64(n), pipeline / float64(n), nil
}

// serverLayers reads the serve-layer series from a server's -metrics
// snapshot, summing shard-labeled series by base name: the mean queue
// wait per document and the total retries.
func serverLayers(snap vs2.MetricsSnapshot) (queueWaitMS float64, retries int64) {
	var sum float64
	var count int64
	for name, h := range snap.Histograms {
		if base, _ := obs.SplitName(name); base == "serve.queue.wait.ms" {
			sum += h.Sum
			count += h.Count
		}
	}
	for name, v := range snap.Counters {
		if base, _ := obs.SplitName(name); base == "serve.retries" {
			retries += v
		}
	}
	if count > 0 {
		queueWaitMS = sum / float64(count)
	}
	return queueWaitMS, retries
}
