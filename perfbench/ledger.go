package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// ledger keeps the spans of a traced run in memory: one span per call
// the benchmark makes into a layer, with its parent, and an op id
// shared by all spans of one operation. Off-path spans (calls made
// only to size a layer, such as a second engine or analysis run on
// the side) are labelled and left out of the per-op sums. A nil
// ledger records nothing, which is how untraced runs stay free of
// tracing cost.
type ledger struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0: a root span
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the ledger began
	End    float64 `json:"end_ms"`
	Off    bool    `json:"off_path,omitempty"`
}

func newLedger() *ledger { return &ledger{t0: time.Now()} }

// add records a span and returns its id (0 on a nil ledger).
func (l *ledger) add(op int64, parent int, name string, start, end time.Time, off bool) int {
	if l == nil {
		return 0
	}
	return l.addMS(op, parent, name, ms(start.Sub(l.t0)), ms(end.Sub(l.t0)), off)
}

// addMS records a span whose ends are given in ms since the ledger began.
func (l *ledger) addMS(op int64, parent int, name string, start, end float64, off bool) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: end, Off: off})
	return len(l.spans)
}

// begin opens a span ending at the matching end call; 0 on a nil ledger.
func (l *ledger) begin(op int64, parent int, name string, off bool) int {
	if l == nil {
		return 0
	}
	now := ms(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: now, Off: off})
	return len(l.spans)
}

func (l *ledger) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := ms(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// covered returns how much of [lo, hi] the intervals cover (their union).
func covered(lo, hi float64, iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi float64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerTotal is one span name's aggregate over a run.
type layerTotal struct {
	Name   string  `json:"name"`
	Off    bool    `json:"off_path,omitempty"`
	Count  int     `json:"count"`
	WallMS float64 `json:"wall_ms"`
	SelfMS float64 `json:"self_ms"` // wall minus what child spans cover
}

// summary returns per-name totals with self times, and the share of
// on-path root time that no child span covers.
func (l *ledger) summary() ([]layerTotal, float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := make(map[int][][2]float64)
	for _, s := range l.spans {
		if s.Parent != 0 && !s.Off {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	byName := map[string]*layerTotal{}
	var rootWall, rootUncovered float64
	for _, s := range l.spans {
		wall := s.End - s.Start
		self := wall - covered(s.Start, s.End, kids[s.ID])
		t := byName[s.Name]
		if t == nil {
			t = &layerTotal{Name: s.Name, Off: s.Off}
			byName[s.Name] = t
		}
		t.Count++
		t.WallMS += wall
		t.SelfMS += self
		if s.Parent == 0 && !s.Off {
			rootWall += wall
			rootUncovered += self
		}
	}
	out := make([]layerTotal, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if rootWall == 0 {
		return out, 0
	}
	return out, rootUncovered / rootWall
}

// write stores every span as one JSON line, gzip-compressed.
func (l *ledger) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
