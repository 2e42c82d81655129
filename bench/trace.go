package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one op
// share its Op id under a root span named "op"; Parent is the id of the
// enclosing span, -1 for a root.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Op     int               `json:"op"`
	Name   string            `json:"name"`
	Start  int64             `json:"startNs"` // since the recorder was made
	End    int64             `json:"endNs"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// traceBlock is the number of consecutive ops traced, then left untraced:
// the recorder alternates so that tracing overhead is the difference
// between neighbouring blocks of one run, not between two runs.
const traceBlock = 64

// recorder keeps spans in memory until the run ends. A nil recorder and a
// recorder that is off are both no-ops; every method is safe on nil.
// It serves one client goroutine.
type recorder struct {
	epoch time.Time
	muted bool // set for warm-up: the executor takes the traced paths, nothing is recorded
	on    bool
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// block switches recording for the op at index i of the stream.
func (r *recorder) block(i int) {
	if r != nil {
		r.on = !r.muted && (i/traceBlock)%2 == 0
	}
}

func (r *recorder) start(name string, op, parent int) int {
	if r == nil || !r.on {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(r.epoch))})
	return id
}

func (r *recorder) end(id int) {
	if id >= 0 {
		r.spans[id].End = int64(time.Since(r.epoch))
	}
}

func (r *recorder) rename(id int, name string) {
	if id >= 0 {
		r.spans[id].Name = name
	}
}

func (r *recorder) attr(id int, k, v string) {
	if id < 0 {
		return
	}
	if r.spans[id].Attrs == nil {
		r.spans[id].Attrs = make(map[string]string, 2)
	}
	r.spans[id].Attrs[k] = v
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat summarises the spans of one name.
type spanStat struct {
	Name     string
	Count    int
	MedianUs float64
	SelfUs   float64 // median of duration minus the children's durations
}

// stats groups spans by name. A span's self time is its duration minus
// the part its child spans cover (children of one parent never overlap:
// a client issues its calls one after another).
func (r *recorder) stats() []spanStat {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	dur := map[string][]int64{}
	self := map[string][]int64{}
	for _, s := range r.spans {
		d := s.End - s.Start
		dur[s.Name] = append(dur[s.Name], d)
		self[s.Name] = append(self[s.Name], d-child[s.ID])
	}
	var out []spanStat
	for name, ds := range dur {
		out = append(out, spanStat{
			Name:     name,
			Count:    len(ds),
			MedianUs: quantile(sorted(ds), 0.5) / 1e3,
			SelfUs:   quantile(sorted(self[name]), 0.5) / 1e3,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// median returns the median duration in µs of the spans called name, 0 if
// there are none.
func (r *recorder) median(name string) float64 {
	var ds []int64
	for _, s := range r.spans {
		if s.Name == name {
			ds = append(ds, s.End-s.Start)
		}
	}
	return quantile(sorted(ds), 0.5) / 1e3
}
