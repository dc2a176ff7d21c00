package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call of the traced run. Spans of one request form a
// tree under the client's root span ("nfad.request"); Root is the root's
// id, so every span names the request it belongs to.
type span struct {
	ID     int32  `json:"id"`
	Root   int32  `json:"root"`
	Parent int32  `json:"parent"` // -1 for the root
	Name   string `json:"name"`   // <module>.<call>
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Shadow ≥ 0 marks a side call: a function core.New or an enumerate
	// constructor also runs internally, timed on the same input right
	// after span Shadow so its share can be moved out of that span. Side
	// calls are not part of the request's work.
	Shadow int32 `json:"shadow"`
	N      int   `json:"n,omitempty"` // words the call produced
}

func (s *span) dur() int64 { return s.End - s.Start }

// module is the span's layer: the name up to the first dot.
func (s *span) module() string {
	m, _, _ := strings.Cut(s.Name, ".")
	return m
}

// recorder keeps every span of the traced run in memory.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span; root < 0 makes it a request root.
func (r *recorder) begin(root, parent int32, name string) int32 {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	if root < 0 {
		root = id
	}
	r.spans = append(r.spans, span{ID: id, Root: root, Parent: parent, Name: name, Start: t, Shadow: -1})
	return id
}

// end closes a span, recording the words it produced.
func (r *recorder) end(id int32, words int) {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End, r.spans[id].N = t, words
}

// side times f as a side call shadowing span shadow.
func (r *recorder) side(root, shadow int32, name string, f func()) {
	id := r.begin(root, root, name)
	f()
	r.end(id, 0)
	r.mu.Lock()
	r.spans[id].Shadow = shadow
	r.mu.Unlock()
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// breakdown is the traced run reduced to per-layer numbers.
type breakdown struct {
	requests int
	reqTime  int64            // Σ request time: root durations minus side calls
	self     map[string]int64 // module → Σ self time; "residual" = no span
	calls    map[string]int   // span name → count
	incl     map[string]int64 // span name → Σ duration
	words    map[string]int   // span name → Σ words produced
}

// analyze computes self times: a span's duration minus the part of it its
// children cover. A side call leaves the request time, and its duration
// moves from the span it shadows to the side call's own module — at most
// what that span has left, since the side call repeats work the span
// did. What no span below the root explains is the residual: transport
// and handler glue.
func (r *recorder) analyze() *breakdown {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := &breakdown{self: map[string]int64{}, calls: map[string]int{}, incl: map[string]int64{}, words: map[string]int{}}
	children := make(map[int32][]*span)
	for i := range r.spans {
		if s := &r.spans[i]; s.End != 0 && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(r.spans))
	for i := range r.spans {
		s := &r.spans[i]
		if s.End == 0 {
			continue // never closed (a request cut short)
		}
		self[i] = s.dur() - covered(s, children[s.ID])
		if s.Parent < 0 {
			b.requests++
			b.reqTime += s.dur()
		} else {
			b.calls[s.Name]++
			b.incl[s.Name] += s.dur()
			b.words[s.Name] += s.N
		}
	}
	for i := range r.spans {
		if s := &r.spans[i]; s.End != 0 && s.Shadow >= 0 {
			b.reqTime -= s.dur()
			self[i] = min(s.dur(), max(self[s.Shadow], 0))
			self[s.Shadow] -= self[i]
		}
	}
	for i := range r.spans {
		mod := r.spans[i].module()
		if r.spans[i].Parent < 0 {
			mod = "residual"
		}
		b.self[mod] += self[i]
	}
	return b
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent *span, kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// share is a module's self time over the traced request time.
func (b *breakdown) share(module string) float64 {
	if b.reqTime <= 0 {
		return 0
	}
	return float64(b.self[module]) / float64(b.reqTime)
}

// mean is a call's mean duration in the given unit (0 when never called).
func (b *breakdown) mean(name string, unit time.Duration) float64 {
	if b.calls[name] == 0 {
		return 0
	}
	return float64(b.incl[name]) / float64(b.calls[name]) / float64(unit)
}

// perWord is a call's total duration per word it produced, in ns.
func (b *breakdown) perWord(name string) float64 {
	if b.words[name] == 0 {
		return 0
	}
	return float64(b.incl[name]) / float64(b.words[name])
}
