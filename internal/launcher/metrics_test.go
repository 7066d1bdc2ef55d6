package launcher

import (
	"encoding/json"
	"slices"
	"testing"
)

// TestStudyStatusKeys pins the keys of the /status study section. StudyStatus
// embeds Stats, so a new Stats field shows up here unless it is tagged
// `json:"-"`.
func TestStudyStatusKeys(t *testing.T) {
	want := []string{
		"backpressure", "converged", "elapsed_seconds", "group_reconnects",
		"group_restarts", "groups_finished", "groups_given_up", "groups_resampled",
		"groups_running", "groups_total", "max_ci_width", "quantile_sketch_bytes",
		"quantile_tuples", "resumes_after_server_restart", "server_restarts",
		"timeout_kills", "used_nodes", "zombie_kills",
	}
	b, err := json.Marshal(StudyStatus{})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range doc {
		got = append(got, k)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("study section keys %v, want %v", got, want)
	}
}
