package bench

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call the benchmark made into a layer: the set-up
// phases, the warm-up, each slice of the measured window, the drain, the
// flush and every layer-driver batch. Times are host nanoseconds since the
// recorder started; Parent is the ID of the span that was open when this
// one began (-1 for a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory and writes them out when the run ends.
// It records from one goroutine: the benchmark's own, around its calls
// into the simulator (spans inside the simulator are a later change).
type Recorder struct {
	run   string
	t0    time.Time
	spans []Span
	open  []int
}

// NewRecorder starts a recorder whose spans all carry the run identifier.
func NewRecorder(run string) *Recorder {
	return &Recorder{run: run, t0: time.Now(), spans: make([]Span, 0, 256)}
}

// Begin opens a span under the innermost open span and returns its ID.
func (r *Recorder) Begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: r.run, Name: name,
		Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

// End closes the innermost open span and returns its duration.
func (r *Recorder) End() time.Duration {
	now := int64(time.Since(r.t0))
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = now
	return time.Duration(now - r.spans[id].Start)
}

// Do records fn as one span and returns its duration.
func (r *Recorder) Do(name string, fn func()) time.Duration {
	r.Begin(name)
	fn()
	return r.End()
}

// Spans returns the recorded spans in start order.
func (r *Recorder) Spans() []Span { return r.spans }

// Total sums the durations of every span with the given name.
func (r *Recorder) Total(name string) time.Duration {
	var d int64
	for _, s := range r.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func SelfTimes(spans []Span) map[int]int64 {
	kids := make(map[int][]Span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// WriteJSON writes the spans, with their self times, as one JSON document.
func (r *Recorder) WriteJSON(path string) error {
	type out struct {
		Span
		Self int64 `json:"self_ns"`
	}
	self := SelfTimes(r.spans)
	doc := make([]out, len(r.spans))
	for i, s := range r.spans {
		doc[i] = out{Span: s, Self: self[s.ID]}
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
