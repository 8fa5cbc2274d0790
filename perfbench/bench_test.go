package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"vs2"
	"vs2/internal/obs"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("median/mean of no samples is not NaN")
	}
}

func TestRateAndUnits(t *testing.T) {
	if got := rate(30, 1500*time.Millisecond); got != 20 {
		t.Errorf("rate = %v, want 20", got)
	}
	if got := rate(30, 0); got != 0 {
		t.Errorf("rate over no time = %v, want 0", got)
	}
	if got := ms(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("ms = %v", got)
	}
	if got := us(2 * time.Millisecond); got != 2000 {
		t.Errorf("us = %v", got)
	}
}

// smallCorpus builds a few noisy posters and their reference entities.
func smallCorpus(t *testing.T) (*corpus, [][]vs2.Extraction) {
	t.Helper()
	c, err := newCorpus(corpusSpec{gen: vs2.GenerateEventPosters, task: vs2.EventPosterTask, taskFlag: "events", n: 4}, 11)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, ref
}

// answerLine renders what a server would emit for document i.
func answerLine(t *testing.T, c *corpus, ref [][]vs2.Extraction, i int) []byte {
	t.Helper()
	return vs2.RenderLine(vs2.BatchResult{Doc: c.docs[i], Result: &vs2.Result{Entities: ref[i]}})
}

func TestJSONLRoundTrip(t *testing.T) {
	c, err := newCorpus(corpusSpec{gen: vs2.GenerateTaxForms, task: vs2.NISTTaxTask, taskFlag: "tax", n: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	for _, l := range c.lines {
		stream.Write(withNewline(l))
	}
	got := strings.Split(strings.TrimSuffix(stream.String(), "\n"), "\n")
	if len(got) != len(c.docs) {
		t.Fatalf("%d lines for %d documents", len(got), len(c.docs))
	}
	for i, line := range got {
		d, err := vs2.DecodeDocument([]byte(line))
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		want, _ := json.Marshal(c.docs[i])
		back, _ := json.Marshal(d)
		if !bytes.Equal(want, back) {
			t.Errorf("line %d does not round-trip", i)
		}
	}
	again, err := newCorpus(corpusSpec{gen: vs2.GenerateTaxForms, task: vs2.NISTTaxTask, taskFlag: "tax", n: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.lines {
		if !bytes.Equal(c.lines[i], again.lines[i]) {
			t.Errorf("seed 5 gave different bytes for document %d", i)
		}
	}
}

func TestCheckerAcceptsFaithfulAnswers(t *testing.T) {
	c, ref := smallCorpus(t)
	k := newChecker(c, ref)
	sent := []int{0, 1, 2, 3}
	var lines [][]byte
	for _, i := range sent {
		lines = append(lines, answerLine(t, c, ref, i))
	}
	o := k.check(sent, lines)
	if len(o.problems) != 0 || o.failed != 0 {
		t.Fatalf("faithful answers rejected: failed %d, %v", o.failed, o.problems)
	}
	for pos, es := range o.served {
		if !sameEntities(es, ref[sent[pos]]) {
			t.Errorf("served entities of answer %d not kept", pos)
		}
	}
}

func TestCheckerRejectsBrokenStreams(t *testing.T) {
	c, ref := smallCorpus(t)
	k := newChecker(c, ref)
	line := func(i int) []byte { return answerLine(t, c, ref, i) }
	sent := []int{0, 1, 2}
	for _, tc := range []struct {
		name  string
		lines [][]byte
	}{
		{"missing", [][]byte{line(0), line(1)}},
		{"duplicated", [][]byte{line(0), line(1), line(1), line(2)}},
		{"out of order", [][]byte{line(0), line(2), line(1)}},
	} {
		o := k.check(sent, tc.lines)
		if len(o.problems) == 0 {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	errLine, _ := json.Marshal(vs2.DocLine{ID: c.docs[2].ID, Error: "shed"})
	if o := k.check(sent, [][]byte{line(0), line(1), errLine}); o.failed != 1 {
		t.Errorf("an error answer counted %d failed, want 1", o.failed)
	}
}

func TestCheckerRejectsBadAnswers(t *testing.T) {
	c, ref := smallCorpus(t)
	k := newChecker(c, ref)
	const i = 0
	if len(ref[i]) == 0 {
		t.Fatal("document 0 has no entities")
	}
	if p := k.answerProblems(c.docs[i], ref[i]); len(p) != 0 {
		t.Fatalf("reference answer has problems: %v", p)
	}
	for _, tc := range []struct {
		name string
		f    func(*vs2.Extraction)
	}{
		{"box out of its block", func(e *vs2.Extraction) { e.Box.X = e.BlockBox.X + e.BlockBox.W + 1 }},
		{"block off the page", func(e *vs2.Extraction) { e.BlockBox.Y = 1e6; e.Box.Y = 1e6 }},
		{"foreign entity key", func(e *vs2.Extraction) { e.Entity = "NotAnEntity" }},
		{"invented word", func(e *vs2.Extraction) { e.Text += " zyzzyva" }},
	} {
		es := append([]vs2.Extraction(nil), ref[i]...)
		tc.f(&es[0])
		if p := k.answerProblems(c.docs[i], es); len(p) == 0 {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	twice := append(append([]vs2.Extraction(nil), ref[i]...), ref[i][0])
	if p := k.answerProblems(c.docs[i], twice); len(p) == 0 {
		t.Error("an entity extracted twice was accepted")
	}

	// An answer that differs from the in-process pipeline only in its
	// Eq. 2 distance is still rejected.
	es := append([]vs2.Extraction(nil), ref[i]...)
	es[0].Distance += 1
	line := vs2.RenderLine(vs2.BatchResult{Doc: c.docs[i], Result: &vs2.Result{Entities: es}})
	if o := k.check([]int{i}, [][]byte{line}); len(o.problems) == 0 {
		t.Error("an answer differing from the reference was accepted")
	}
}

func TestDegradedIsCountedNotCompared(t *testing.T) {
	c, ref := smallCorpus(t)
	k := newChecker(c, ref)
	line, _ := json.Marshal(vs2.DocLine{ID: c.docs[0].ID, Entities: ref[0], Degraded: []string{"segment degraded to sequential-recursion"}})
	o := k.check([]int{0}, [][]byte{line})
	if len(o.problems) != 0 || o.degraded != 1 {
		t.Errorf("degraded answer: problems %v, degraded %d", o.problems, o.degraded)
	}
}

func TestShardPIDs(t *testing.T) {
	body := []byte(`{"status":"ok","detail":{"fleet":{"shards":[{"shard":0,"pid":101},{"shard":1,"up":false}]}}}`)
	if got := shardPIDs(body); len(got) != 1 || got[0] != 101 {
		t.Errorf("shardPIDs = %v, want [101]", got)
	}
	if got := shardPIDs([]byte(`{"status":"ok","detail":{"open_breakers":[]}}`)); len(got) != 0 {
		t.Errorf("vs2serve health gave pids %v", got)
	}
}

func TestServerLayers(t *testing.T) {
	snap := vs2.MetricsSnapshot{
		Counters: map[string]int64{`serve.retries{shard="0"}`: 2, `serve.retries{shard="1"}`: 1, "serve.completed": 9},
		Histograms: map[string]obs.HistogramSnapshot{
			`serve.queue.wait.ms{shard="0"}`: {Count: 2, Sum: 10},
			`serve.queue.wait.ms{shard="1"}`: {Count: 3, Sum: 5},
		},
	}
	wait, retries := serverLayers(snap)
	if wait != 3 || retries != 3 {
		t.Errorf("serverLayers = %v ms, %d retries; want 3, 3", wait, retries)
	}
}
