package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. A call's root span is spanCall (closed loop) or
// spanClientCall/spanRawCall (the isolated client-versus-raw pass); each
// verdict it returned adds a spanDecide child whose duration is the
// program-reported DecisionNanos. The isolated layer passes add their
// own names, one span per timed round.
const (
	spanCall = iota
	spanDecide
	spanClientCall
	spanRawCall
)

// span is one recorded interval. Spans of one request share id.
type span struct {
	id      uint64
	start   int64 // ns since the tracer's epoch
	dur     int64
	parent  int32 // index of the parent in the same buffer, -1 for a root
	name    uint8 // index into tracer.names
	program bool  // duration reported by the program, not timed here
}

// maxSpans bounds each buffer, so a long traced run keeps a bounded
// amount of memory; later spans are counted, not kept.
const maxSpans = 1 << 18

// tracer keeps spans in memory, one buffer per caller plus one for the
// isolated passes, until the run ends.
type tracer struct {
	epoch   time.Time
	names   []string
	bufs    [][]span
	seq     []uint64
	dropped []int
}

func newTracer(callers int) *tracer {
	return &tracer{
		epoch:   time.Now(),
		names:   []string{"call", "offload.decide", "client.call", "raw.call"},
		bufs:    make([][]span, callers+1),
		seq:     make([]uint64, callers+1),
		dropped: make([]int, callers+1),
	}
}

// passBuf is the buffer index of the isolated passes.
func (t *tracer) passBuf() int { return len(t.bufs) - 1 }

// call records a root span and one program-reported child per verdict.
// Buffer b is written only by its owner goroutine.
func (t *tracer) call(b int, name uint8, start time.Time, dur time.Duration, dn []int64) {
	if len(t.bufs[b])+1+len(dn) > maxSpans {
		t.dropped[b] += 1 + len(dn)
		return
	}
	t.seq[b]++
	id := uint64(b)<<48 | t.seq[b]
	at := start.Sub(t.epoch).Nanoseconds()
	root := int32(len(t.bufs[b]))
	t.bufs[b] = append(t.bufs[b], span{id: id, start: at, dur: dur.Nanoseconds(), parent: -1, name: name})
	for _, d := range dn {
		t.bufs[b] = append(t.bufs[b], span{id: id, start: at, dur: d, parent: root, name: spanDecide, program: true})
	}
}

// pass records one timed round of the isolated layer pass named label.
// Passes run on the main goroutine only.
func (t *tracer) pass(label string, start time.Time, dur time.Duration) {
	b := t.passBuf()
	if len(t.bufs[b]) >= maxSpans {
		t.dropped[b]++
		return
	}
	name := -1
	for i, n := range t.names {
		if n == label {
			name = i
		}
	}
	if name < 0 {
		name = len(t.names)
		t.names = append(t.names, label)
	}
	t.seq[b]++
	t.bufs[b] = append(t.bufs[b], span{id: uint64(b)<<48 | t.seq[b],
		start: start.Sub(t.epoch).Nanoseconds(), dur: dur.Nanoseconds(), parent: -1, name: uint8(name)})
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name uint8) []int64 {
	var out []int64
	for _, buf := range t.bufs {
		for _, s := range buf {
			if s.name == name {
				out = append(out, s.dur)
			}
		}
	}
	return out
}

// selfTimes returns each root span's self time: its duration minus the
// time its children cover. Program-reported children carry no position
// of their own, so they are taken to lie inside the parent without
// overlapping one another.
func (t *tracer) selfTimes(name uint8) []int64 {
	var out []int64
	for _, buf := range t.bufs {
		child := make([]int64, len(buf))
		for _, s := range buf {
			if s.parent >= 0 {
				child[s.parent] += s.dur
			}
		}
		for i, s := range buf {
			if s.parent < 0 && s.name == name {
				out = append(out, max(s.dur-child[i], 0))
			}
		}
	}
	return out
}

func (t *tracer) droppedSpans() int {
	n := 0
	for _, d := range t.dropped {
		n += d
	}
	return n
}

// write stores every span as one JSON line: id is the request
// identifier its spans share, span and parent number the spans
// themselves (parent 0 for a root).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for b, buf := range t.bufs {
		for i, s := range buf {
			parent := uint64(0)
			if s.parent >= 0 {
				parent = uint64(b)<<32 | uint64(s.parent+1)
			}
			fmt.Fprintf(w, `{"id":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"dur_ns":%d,"program":%t}`+"\n",
				s.id, uint64(b)<<32|uint64(i+1), parent, t.names[s.name], s.start, s.dur, s.program)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
