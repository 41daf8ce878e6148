package runsvc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// historyStore is the append-only run history: terminal JobViews, one
// compact JSON object per line. The file is the source of truth across
// daemon restarts — New replays it so Get/List/Compare see past runs
// and new IDs continue after the highest recorded sequence. Appends are
// terminal-state-only by construction (only finish and queued-cancel
// write), so a record never needs updating in place; a crash mid-run
// simply leaves that run unrecorded, which is the honest outcome.
type historyStore struct {
	mu   sync.Mutex
	path string // "" = memory only
	f    *os.File
	byID map[string]JobView
	ids  []string // append order
}

// openHistory loads (or creates) the JSONL history at path. An empty
// path yields a memory-only store. Appends are not fsynced, so a crash
// can leave the final record torn: a last line with no trailing newline
// that does not decode is truncated away and the history before it
// kept. An undecodable line anywhere else is corruption no crash of
// ours explains, and stays an error.
func openHistory(path string) (*historyStore, error) {
	h := &historyStore{path: path, byID: map[string]JobView{}}
	if path == "" {
		return h, nil
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runsvc: history: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runsvc: history: %w", err)
	}
	r := bufio.NewReader(f)
	var off int64 // file offset of the line being read
	for line := 1; ; line++ {
		raw, rerr := r.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			f.Close()
			return nil, fmt.Errorf("runsvc: history %s: %w", path, rerr)
		}
		last := rerr == io.EOF // the final line, and it has no trailing newline
		if text := bytes.TrimSpace(raw); len(text) > 0 {
			var v JobView
			err := json.Unmarshal(text, &v)
			switch {
			case err == nil:
				if _, dup := h.byID[v.ID]; !dup {
					h.ids = append(h.ids, v.ID)
				}
				h.byID[v.ID] = v // last record wins on duplicates
				if last {
					// Whole record, lost newline: restore it so the next
					// append starts its own line.
					_, err = f.Write([]byte{'\n'})
				}
			case last:
				// A crash mid-Write tore the final record. That run is
				// simply unrecorded (the store's contract for a crash
				// mid-run); everything before it stands.
				if err = f.Truncate(off); err == nil {
					log.Printf("runsvc: history %s:%d: dropped torn final record (%d bytes)", path, line, len(raw))
				}
			default:
				err = fmt.Errorf("line %d: %w", line, err)
			}
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("runsvc: history %s: %w", path, err)
			}
		}
		if last {
			break
		}
		off += int64(len(raw))
	}
	h.f = f
	return h, nil
}

// maxSeq returns the highest run-NNNNNN sequence number on record, so
// new IDs continue rather than collide after a restart.
func (h *historyStore) maxSeq() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	max := 0
	for id := range h.byID {
		if n, ok := parseSeq(id); ok && n > max {
			max = n
		}
	}
	return max
}

func parseSeq(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "run-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// append records one terminal view, durably when file-backed.
func (h *historyStore) append(v JobView) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.byID[v.ID]; !dup {
		h.ids = append(h.ids, v.ID)
	}
	h.byID[v.ID] = v
	if h.f == nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		return // JobView always marshals; nothing sane to do here anyway
	}
	b = append(b, '\n')
	h.f.Write(b)
}

// get returns one recorded view.
func (h *historyStore) get(id string) (JobView, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v, ok := h.byID[id]
	return v, ok
}

// list returns every recorded view sorted by ID (run IDs are
// zero-padded, so lexicographic order is submission order).
func (h *historyStore) list() []JobView {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]JobView, 0, len(h.ids))
	for _, id := range h.ids {
		out = append(out, h.byID[id])
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
