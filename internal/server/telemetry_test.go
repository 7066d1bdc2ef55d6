package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/obs"
	olog "melissa/internal/obs/log"
	"melissa/internal/transport"
)

// expositionLine matches one valid Prometheus 0.0.4 text-exposition line
// (comment, or sample with optional label set and float value).
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE+.-]+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [+-]Inf|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? NaN)$`)

func scrape(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// metricValue extracts the first sample value of the named series (ignoring
// any label set) from an exposition body; ok is false when absent.
func metricValue(body, name string) (float64, bool) {
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue // longer metric name sharing the prefix
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err == nil {
			return v, true
		}
	}
	return 0, false
}

// TestTelemetryEndpointLiveIngest runs a small study against a real server
// while scraping /metrics and /status concurrently: the endpoint must serve
// valid exposition and JSON the whole time (race detector covers the
// lock-free reads), and the pipeline counters must move.
func TestTelemetryEndpointLiveIngest(t *testing.T) {
	ep, err := obs.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("obs.Serve: %v", err)
	}
	defer ep.Close()
	base := "http://" + ep.Addr()

	net := transport.NewMemNetwork(transport.Options{})
	const cells, timesteps, p, nGroups = 64, 5, 3, 8
	const procs = 2
	design := testDesign(p, nGroups)
	sim := testSim(cells, timesteps)
	s := startServer(t, net, procs, cells, timesteps, p, func(c *Config) {
		c.FoldWorkers = 2
	})

	msgsBefore, _ := metricValue(scrapeBody(t, base+"/metrics"), "melissa_server_messages_total")

	// Scrapers hammer both endpoints while groups stream.
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _, _ := scrape(t, base+"/metrics")
				if code != http.StatusOK {
					t.Errorf("/metrics status %d", code)
					return
				}
				code, _, _ = scrape(t, base+"/status")
				if code != http.StatusOK {
					t.Errorf("/status status %d", code)
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for g := 0; g < nGroups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
				ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 1}, Rows: design.GroupRows(g), Sim: sim,
			}); err != nil {
				t.Errorf("group %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	waitFolds(t, s, int64(nGroups*timesteps*procs), 20*time.Second)
	close(stop)
	scrapers.Wait()
	s.Stop(false)

	// The exposition must parse line by line and show the study's traffic.
	code, ctype, body := scrape(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("/metrics content-type %q", ctype)
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !expositionLine.MatchString(line) {
			t.Fatalf("invalid exposition line: %q", line)
		}
	}
	msgs, ok := metricValue(body, "melissa_server_messages_total")
	if !ok || msgs-msgsBefore < float64(nGroups*timesteps*procs) {
		t.Fatalf("melissa_server_messages_total = %v (ok=%v), want >= %d more than %v",
			msgs, ok, nGroups*timesteps*procs, msgsBefore)
	}
	for _, name := range []string{
		"melissa_server_fold_seconds_count",
		"melissa_server_route_seconds_count",
		"melissa_server_folds_total",
		"melissa_transport_pool_gets_total",
	} {
		if v, ok := metricValue(body, name); !ok || v <= 0 {
			t.Errorf("%s = %v (ok=%v), want > 0", name, v, ok)
		}
	}

	// The /status document must carry the server section with live totals.
	code, ctype, body = scrape(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status status %d", code)
	}
	if !strings.Contains(ctype, "application/json") {
		t.Fatalf("/status content-type %q", ctype)
	}
	var doc struct {
		Process map[string]any `json:"process"`
		Server  Status         `json:"server"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/status JSON: %v\n%s", err, body)
	}
	if doc.Process["pid"] == nil {
		t.Fatal("/status missing process section")
	}
	if doc.Server.Messages < int64(nGroups*timesteps*procs) {
		t.Fatalf("/status server.messages = %d, want >= %d", doc.Server.Messages, nGroups*timesteps*procs)
	}
	if doc.Server.GroupsFinished != nGroups {
		t.Fatalf("/status server.groups_finished = %d, want %d", doc.Server.GroupsFinished, nGroups)
	}
	if len(doc.Server.ProcStatus) != procs {
		t.Fatalf("/status server.proc has %d entries, want %d", len(doc.Server.ProcStatus), procs)
	}
}

func scrapeBody(t *testing.T, url string) string {
	t.Helper()
	_, _, body := scrape(t, url)
	return body
}

// TestDropFrameRateLimited: the malformed-frame drop path must count every
// drop exactly but log at most once per offending connection per interval,
// carrying the number of suppressed repeats.
func TestDropFrameRateLimited(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	s := startServer(t, net, 1, 16, 2, 2, nil)
	defer s.Stop(false)
	p := s.Procs()[0]
	p.route.dropLim.Interval = 50 * time.Millisecond

	var mu sync.Mutex
	var buf bytes.Buffer
	olog.Default.SetOutput(writerFunc(func(b []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(b)
	}))
	defer olog.Default.SetOutput(os.Stderr)

	before := mDrops.With("rate_limit_test").Value()
	const floods = 50
	for i := 0; i < floods; i++ {
		p.route.dropFrame("rate_limit_test", 42, "step", i)
	}
	p.route.dropFrame("rate_limit_test", 43) // distinct connection: its own budget

	if got := mDrops.With("rate_limit_test").Value() - before; got != floods+1 {
		t.Fatalf("drop counter moved by %d, want %d", got, floods+1)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	// One line for connection 42's whole flood, one for connection 43.
	if got := strings.Count(out, "server.frame_drop"); got != 2 {
		t.Fatalf("logged %d frame_drop lines during the window, want 2 (one per connection):\n%s", got, out)
	}

	// After the window rolls, the next drop logs again and reports how many
	// repeats were swallowed.
	time.Sleep(3 * p.route.dropLim.Interval)
	p.route.dropFrame("rate_limit_test", 42)
	mu.Lock()
	out = buf.String()
	mu.Unlock()
	if got := strings.Count(out, "server.frame_drop"); got != 3 {
		t.Fatalf("logged %d frame_drop lines after the window rolled, want 3:\n%s", got, out)
	}
	if !strings.Contains(out, fmt.Sprintf("suppressed=%d", floods-1)) {
		t.Fatalf("post-window line should carry suppressed=%d:\n%s", floods-1, out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }
