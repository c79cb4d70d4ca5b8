package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// MountDebug mounts the observability surface on mux: /metricsz from reg
// and, when spans is non-nil, /tracez and /spanz over its ring, the latter
// naming this process node in every page. A nil reg skips /metricsz.
func MountDebug(mux *http.ServeMux, reg *Registry, spans *SpanRecorder, node string) {
	if reg != nil {
		mux.Handle("GET /metricsz", reg.MetricsHandler())
	}
	if spans != nil {
		mux.Handle("GET /tracez", TracezHandler(spans))
		mux.Handle("GET "+SpanzPath, SpanzHandler(spans, node))
	}
}

// ServePprof binds addr and serves the standard net/http/pprof endpoints
// under /debug/pprof/ in the background, returning the server (for
// shutdown) and the bound address. Profiling is opt-in (the -pprof-addr
// flags) and gets its own listener, so it never shares a port with
// production traffic.
func ServePprof(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("pprof: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
