package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"vs2"
)

// corpus is one workload's input: the noisy documents as the program
// receives them (compact JSONL, one line each), the generator's ground
// truth for scoring, and the task the documents are extracted for.
type corpus struct {
	task     vs2.Task
	taskFlag string // the binaries' -task value
	docs     []*vs2.Document
	truth    []*vs2.GroundTruth
	lines    [][]byte
}

// corpusSpec names a generator and the task its documents go with.
type corpusSpec struct {
	gen      func(n int, seed int64) []vs2.Labeled
	task     func() vs2.Task
	taskFlag string
	n        int
}

// newCorpus generates spec.n documents from seed and passes each through
// the OCR channel of its capture mode. The same seed gives the same
// bytes on every run.
func newCorpus(spec corpusSpec, seed int64) (*corpus, error) {
	c := &corpus{task: spec.task(), taskFlag: spec.taskFlag}
	for i, l := range spec.gen(spec.n, seed) {
		noisy := vs2.OCRNoise(l, seed*1_000_003+int64(i))
		// Compact JSON is one line: json.Marshal escapes every newline
		// inside strings. The indented vs2.EncodeDocument spans many
		// lines, which both binaries reject at line 1.
		line, err := json.Marshal(noisy.Doc)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", noisy.Doc.ID, err)
		}
		c.docs = append(c.docs, noisy.Doc)
		c.truth = append(c.truth, noisy.Truth)
		c.lines = append(c.lines, line)
	}
	return c, nil
}

// withNewline returns a copy of line terminated by a newline, ready for
// one write to a JSONL stream.
func withNewline(line []byte) []byte {
	return append(line[:len(line):len(line)], '\n')
}

// reference extracts every document in process with a cold
// vs2.Pipeline — no template cache, no server, no shards — on up to two
// goroutines. Served answers must carry the same entity lists: a
// result may not depend on the topology that produced it.
func reference(c *corpus) ([][]vs2.Extraction, error) {
	p := vs2.NewPipeline(vs2.Config{Task: c.task})
	out := make([][]vs2.Extraction, len(c.docs))
	errs := make([]error, len(c.docs))
	var wg sync.WaitGroup
	const goroutines = 2
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(c.docs); i += goroutines {
				// Extract from the decoded line, as a server does, so the
				// reference sees exactly the bytes that were sent.
				d, err := vs2.DecodeDocument(c.lines[i])
				if err != nil {
					errs[i] = err
					continue
				}
				res, err := p.ExtractContext(context.Background(), d)
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", d.ID, err)
					continue
				}
				out[i] = res.Entities
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("in-process reference: %w", err)
		}
	}
	return out, nil
}
