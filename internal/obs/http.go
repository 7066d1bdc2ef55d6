package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"time"
)

// Endpoint is a running telemetry HTTP server: /metrics (Prometheus text
// exposition), /status (JSON study snapshot), and /debug/pprof.
type Endpoint struct {
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// Serve starts the telemetry endpoint on addr (e.g. "127.0.0.1:9090";
// port 0 picks a free port — read it back with Addr). The listener is bound
// synchronously so a bad address fails here, then requests are served in a
// background goroutine until Close.
func Serve(addr string, reg *Registry) (*Endpoint, error) {
	if reg == nil {
		reg = Default
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	e := &Endpoint{ln: ln, start: time.Now()}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		reg.scraped.Store(time.Now().UnixNano())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteMetrics(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(e.statusDoc(reg))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	e.srv = &http.Server{Handler: mux}
	go func() { _ = e.srv.Serve(ln) }()
	return e, nil
}

// statusDoc assembles the /status JSON document: one built-in "process"
// section plus every registered section. Section callbacks run at request
// time, so the snapshot is as live as the atomics they read.
func (e *Endpoint) statusDoc(reg *Registry) map[string]any {
	doc := map[string]any{
		"process": processStatus(e.start),
	}
	names, fns := reg.statusSections()
	for i, name := range names {
		doc[name] = fns[i]()
	}
	return doc
}

func processStatus(start time.Time) map[string]any {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]any{
		"pid":            os.Getpid(),
		"uptime_seconds": time.Since(start).Seconds(),
		"goroutines":     runtime.NumGoroutine(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"heap_bytes":     ms.HeapAlloc,
		"go_version":     runtime.Version(),
	}
}

// Addr returns the bound listen address (useful with port 0).
func (e *Endpoint) Addr() string { return e.ln.Addr().String() }

// Close stops the endpoint and releases the port.
func (e *Endpoint) Close() error { return e.srv.Close() }
