package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler serving the registry in the Prometheus
// text exposition format — the /metrics endpoint of the debug server. A
// nil registry serves an empty (but valid) exposition.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r) // client went away; nothing useful to do
	})
}

// FlightHandler returns an http.Handler serving the flight recorder
// snapshot as JSON — the /debug/flightrecorder endpoint. A nil recorder
// serves an empty (but valid) snapshot, so the route exists whether or
// not recording is on.
func FlightHandler(fr *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = fr.WriteJSON(w) // client went away; nothing useful to do
	})
}

// DebugMux builds the debug endpoint surface the -debug-addr flag serves:
// /metrics in Prometheus format, /debug/flightrecorder backed by fr (nil
// fr serves an empty snapshot), and the standard net/http/pprof handlers
// under /debug/pprof/. The pprof handlers are registered explicitly on a
// private mux (importing net/http/pprof for its side effect would pollute
// http.DefaultServeMux for every embedder).
func DebugMux(r *Registry, fr *FlightRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.Handle("/debug/flightrecorder", FlightHandler(fr))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug HTTP server.
type DebugServer struct {
	// Addr is the actual listen address (resolves ":0" to the bound port).
	Addr string

	srv *http.Server
	ln  net.Listener
}

// StartDebugServer binds addr (e.g. "localhost:6060" or ":0") and serves
// DebugMux(r, fr) in a background goroutine until Close.
func StartDebugServer(addr string, r *Registry, fr *FlightRecorder) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: DebugMux(r, fr)}
	ds := &DebugServer{Addr: ln.Addr().String(), srv: srv, ln: ln}
	go func() {
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return ds, nil
}

// Close stops the server and releases the listener.
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
