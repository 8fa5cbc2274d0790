package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"vs2"
)

// answer is one result line as the binaries emit it (vs2.DocLine). The
// entities are decoded into the library type so they compare exactly
// with the in-process reference.
type answer struct {
	ID       string           `json:"id"`
	Entities []vs2.Extraction `json:"entities"`
	Degraded []string         `json:"degraded"`
	Error    string           `json:"error"`
}

// outcome is what the checker concluded about one stream of answers.
type outcome struct {
	failed   int      // documents with no usable answer: missing or carrying an error
	degraded int      // answers with a non-empty degraded list (counted, not compared)
	problems []string // correctness violations; empty means correct
	// served holds each usable answer's entities, aligned with the
	// documents sent; nil where the document failed.
	served [][]vs2.Extraction
}

func (o *outcome) addf(format string, a ...any) {
	// Cap the list: one broken run should not print megabytes.
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, a...))
	}
}

// checker validates answers against the documents sent and the
// in-process reference.
type checker struct {
	c        *corpus
	ref      [][]vs2.Extraction
	entities map[string]bool // the task's entity keys
}

func newChecker(c *corpus, ref [][]vs2.Extraction) *checker {
	keys := map[string]bool{}
	for _, s := range c.task.Sets {
		keys[s.Entity] = true
	}
	return &checker{c: c, ref: ref, entities: keys}
}

// check validates one stream: sent holds the corpus indexes of the
// documents in the order they were written to the stream, lines the
// answer lines in the order they arrived.
//
// Each document gets exactly one answer, in stream order, with its id
// and an empty error. Every answer must then hold: entity keys of the
// task, each at most once; each Box inside its BlockBox and both on the
// page; extracted text made of words of the elements inside Box; and
// the same entity list as the in-process reference.
func (k *checker) check(sent []int, lines [][]byte) outcome {
	o := outcome{served: make([][]vs2.Extraction, len(sent))}
	if len(lines) != len(sent) {
		o.addf("%d documents sent, %d answers received", len(sent), len(lines))
	}
	for pos, idx := range sent {
		if pos >= len(lines) {
			o.failed++
			continue
		}
		d := k.c.docs[idx]
		var a answer
		if err := json.Unmarshal(lines[pos], &a); err != nil {
			o.failed++
			o.addf("answer %d: not a result line: %v", pos, err)
			continue
		}
		if a.ID != d.ID {
			o.failed++
			o.addf("answer %d: id %q, want %q (stream order)", pos, a.ID, d.ID)
			continue
		}
		if a.Error != "" {
			o.failed++
			continue
		}
		if len(a.Degraded) > 0 {
			o.degraded++
		}
		o.served[pos] = append([]vs2.Extraction{}, a.Entities...)
		for _, p := range k.answerProblems(d, a.Entities) {
			o.addf("%s: %s", d.ID, p)
		}
		if !sameEntities(a.Entities, k.ref[idx]) {
			o.addf("%s: entities differ from the in-process pipeline", d.ID)
		}
	}
	return o
}

// answerProblems checks the per-answer properties that hold for any
// correct extraction of d.
func (k *checker) answerProblems(d *vs2.Document, es []vs2.Extraction) []string {
	var out []string
	// OCR jitter and rotation may push an element past the page edge
	// (doc.Validate admits that), so the page here is the page together
	// with every element on it.
	page := vs2.Rect{W: d.Width, H: d.Height}.Union(d.BoundingBoxOf(allElements(d)))
	seen := map[string]bool{}
	for _, e := range es {
		if !k.entities[e.Entity] {
			out = append(out, fmt.Sprintf("entity %q is not a key of the task", e.Entity))
		}
		if seen[e.Entity] {
			out = append(out, fmt.Sprintf("entity %q extracted twice", e.Entity))
		}
		seen[e.Entity] = true
		if !within(e.Box, e.BlockBox) {
			out = append(out, fmt.Sprintf("%s: Box %v outside BlockBox %v", e.Entity, e.Box, e.BlockBox))
		}
		if !within(e.Box, page) || !within(e.BlockBox, page) {
			out = append(out, fmt.Sprintf("%s: Box %v or BlockBox %v off the page %v", e.Entity, e.Box, e.BlockBox, page))
		}
		if w := strangeWord(d, e); w != "" {
			out = append(out, fmt.Sprintf("%s: word %q is not text of an element inside Box", e.Entity, w))
		}
	}
	return out
}

func allElements(d *vs2.Document) []int {
	ids := make([]int, len(d.Elements))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// boxSlack absorbs the float rounding of bounding-box unions.
const boxSlack = 1e-6

func within(in, out vs2.Rect) bool {
	return in.X >= out.X-boxSlack && in.Y >= out.Y-boxSlack &&
		in.X+in.W <= out.X+out.W+boxSlack && in.Y+in.H <= out.Y+out.H+boxSlack
}

// strangeWord returns the first word of e.Text that is not part of the
// text of an element lying inside e.Box, or "" when every word is.
func strangeWord(d *vs2.Document, e vs2.Extraction) string {
	var inside []string
	for i := range d.Elements {
		el := &d.Elements[i]
		if el.Kind == vs2.TextElement && within(el.Box, e.Box) {
			inside = append(inside, el.Text)
		}
	}
	for _, w := range strings.Fields(e.Text) {
		found := false
		for _, t := range inside {
			if strings.Contains(t, w) {
				found = true
				break
			}
		}
		if !found {
			return w
		}
	}
	return ""
}

// sameEntities compares two entity lists field by field; nil and empty
// are the same list.
func sameEntities(a, b []vs2.Extraction) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}
