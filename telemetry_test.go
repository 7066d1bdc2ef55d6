package melissa_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"melissa"
)

// TestServeTelemetryDuringStudy runs a small study while polling the
// telemetry endpoint: the study section must appear in /status and reach the
// final group count, and /metrics must expose the study gauges.
func TestServeTelemetryDuringStudy(t *testing.T) {
	ep, err := melissa.ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTelemetry: %v", err)
	}
	defer ep.Close()
	base := "http://" + ep.Addr()

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	const groups = 6
	done := make(chan struct{})
	var poll sync.WaitGroup
	poll.Add(1)
	go func() {
		defer poll.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			get("/status") // must never error while the study runs
		}
	}()

	_, stats, err := melissa.RunStudy(melissa.StudyConfig{
		Parameters: []melissa.Distribution{
			melissa.Uniform{Low: -1, High: 1},
			melissa.Uniform{Low: 0, High: 2},
		},
		Groups: groups, Seed: 7, Cells: 32, Timesteps: 3,
		Simulation: melissa.SimFunc(func(params []float64, emit func(int, []float64) bool) {
			field := make([]float64, 32)
			for step := 0; step < 3; step++ {
				for c := range field {
					field[c] = params[0]*float64(c) + params[1]*float64(step)
				}
				if !emit(step, field) {
					return
				}
			}
		}),
		ServerProcs: 2,
	})
	close(done)
	poll.Wait()
	if err != nil {
		t.Fatalf("RunStudy: %v", err)
	}
	if stats.GroupsFinished != groups {
		t.Fatalf("GroupsFinished = %d, want %d", stats.GroupsFinished, groups)
	}

	var doc struct {
		Study struct {
			GroupsTotal    int64 `json:"groups_total"`
			GroupsFinished int64 `json:"groups_finished"`
		} `json:"study"`
	}
	if err := json.Unmarshal([]byte(get("/status")), &doc); err != nil {
		t.Fatalf("/status JSON: %v", err)
	}
	if doc.Study.GroupsTotal != groups || doc.Study.GroupsFinished != groups {
		t.Fatalf("study section = %+v, want %d groups finished", doc.Study, groups)
	}

	// The launcher and server loops' wakeups by cause: every cause is
	// exposed, group exits woke the launcher, and frames woke the server.
	metrics := get("/metrics")
	wakeups := func(name string, causes ...string) map[string]int64 {
		wakes := map[string]int64{}
		for _, line := range strings.Split(metrics, "\n") {
			var cause string
			var n int64
			if _, err := fmt.Sscanf(line, name+"{cause=%q} %d", &cause, &n); err == nil {
				wakes[cause] = n
			}
		}
		for _, cause := range causes {
			if _, ok := wakes[cause]; !ok {
				t.Fatalf("/metrics lacks %s{cause=%q}: %v", name, cause, wakes)
			}
		}
		return wakes
	}
	if wakes := wakeups("melissa_launcher_wakeups_total", "done", "report", "reconnect", "tick"); wakes["done"] < 1 {
		t.Fatalf("no done wakeups after a %d-group study: %v", groups, wakes)
	}
	if wakes := wakeups("melissa_server_wakeups_total", "message", "deadline"); wakes["message"] < 1 {
		t.Fatalf("no message wakeups after a %d-group study: %v", groups, wakes)
	}
}
