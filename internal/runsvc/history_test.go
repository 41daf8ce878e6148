package runsvc

import (
	"bytes"
	"encoding/json"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// historyLine is one record exactly as append writes it.
func historyLine(t *testing.T, id string) string {
	t.Helper()
	b, err := json.Marshal(JobView{ID: id, Name: "pkg", Backend: "sim", Shards: 1, State: StateDone})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// captureLog redirects the standard logger for the test's duration.
func captureLog(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	old := log.Writer()
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(old) })
	return &buf
}

// A crash mid-Write leaves the final record torn: no trailing newline,
// not valid JSON. The daemon must boot anyway — drop exactly that
// record with one log line, keep everything before it, and leave a file
// the next append extends cleanly, so a second restart sees old and new
// records alike.
func TestHistoryTornFinalLineIsTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	intact := historyLine(t, "run-000001") + historyLine(t, "run-000002")
	third := historyLine(t, "run-000003")
	if err := os.WriteFile(path, []byte(intact+third[:len(third)/2]), 0o644); err != nil {
		t.Fatal(err)
	}
	logged := captureLog(t)

	// Through New, not just openHistory: booting is the point.
	s, err := New(Config{HistoryPath: path})
	if err != nil {
		t.Fatalf("service refused to boot on a torn final record: %v", err)
	}
	if got := s.List(); len(got) != 2 || got[0].ID != "run-000001" || got[1].ID != "run-000002" {
		t.Fatalf("recalled %+v, want the two intact records", got)
	}
	if n := strings.Count(logged.String(), "dropped torn final record"); n != 1 {
		t.Fatalf("%d log lines about the torn record, want 1:\n%s", n, logged)
	}
	if b, _ := os.ReadFile(path); string(b) != intact {
		t.Fatalf("file not truncated to the last newline:\n%q", b)
	}
	// The torn run-000003 never happened, so its number is free again.
	s.history.append(JobView{ID: "run-000003", Name: "pkg", Backend: "sim", Shards: 1, State: StateDone})
	s.Close()

	h, err := openHistory(path)
	if err != nil {
		t.Fatalf("reopen after append: %v", err)
	}
	defer h.f.Close()
	if got := h.list(); len(got) != 3 || got[2].ID != "run-000003" {
		t.Fatalf("after restart-then-append recalled %+v, want three records", got)
	}
	if strings.Count(logged.String(), "dropped") != 1 {
		t.Fatalf("a clean file logged a drop:\n%s", logged)
	}
}

// Only a torn tail is forgiven. An undecodable line with a newline
// after it was written whole, so no crash of ours produced it: followed
// by valid records or not, it stays a boot error naming the line, and
// the file is left alone.
func TestHistoryCorruptLineIsStillAnError(t *testing.T) {
	for name, content := range map[string]string{
		"bad line then valid ones": historyLine(t, "run-000001") + "{\"id\":\"run-0000\n" + historyLine(t, "run-000003"),
		"bad final line, newline":  historyLine(t, "run-000001") + "{\"id\":\"run-0000\n",
	} {
		path := filepath.Join(t.TempDir(), "history.jsonl")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := openHistory(path)
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("%s: err = %v, want an error naming line 2", name, err)
		}
		if b, _ := os.ReadFile(path); string(b) != content {
			t.Fatalf("%s: a refused history file was modified", name)
		}
	}
}

// A final record that is whole but lost only its newline is kept, and
// the newline restored, so the next append does not run into it.
func TestHistoryWholeFinalRecordWithoutNewlineIsKept(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	first, second := historyLine(t, "run-000001"), historyLine(t, "run-000002")
	if err := os.WriteFile(path, []byte(first+strings.TrimSuffix(second, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := openHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	h.append(JobView{ID: "run-000003", Name: "pkg", Backend: "sim", Shards: 1, State: StateDone})
	h.f.Close()
	if b, _ := os.ReadFile(path); string(b) != first+second+historyLine(t, "run-000003") {
		t.Fatalf("file after append:\n%s", b)
	}
}
