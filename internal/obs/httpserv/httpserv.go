// Package httpserv is the live side of the telemetry subsystem: a tiny
// embeddable HTTP server exposing the obs registry as Prometheus text
// exposition (/metrics), a liveness probe (/healthz), a JSON progress
// view with scrape-side throughput/ETA estimation (/progress), the
// flight-recorder window (/flight), and net/http/pprof (/debug/pprof).
// It reads telemetry only through atomic snapshots — mounting it never
// adds locks or allocations to the simulator's recording paths — and
// the whole server is stdlib-only, so `meccsim -serve :PORT` costs no
// dependencies.
//
// This package may use wall-clock time freely: it observes the
// simulation from outside and is deliberately excluded from the
// determinism-vetted package set.
package httpserv

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config wires the server to a recorder's components. Any field may be
// nil; the corresponding endpoint degrades gracefully (empty metrics,
// zero progress, empty flight dump).
type Config struct {
	// Registry backs /metrics.
	Registry *obs.Registry
	// Progress backs /progress.
	Progress *obs.Progress
	// Flight backs /flight.
	Flight *obs.FlightRecorder
	// Health, when set, gates /healthz: a non-nil error reports 503.
	Health func() error
}

// ewmaAlpha weights the throughput EWMA: each scrape-to-scrape rate
// sample contributes 30%, so the estimate settles in a few scrapes
// without whipsawing on one fast interval.
const ewmaAlpha = 0.3

// Server serves the observability endpoints. Throughput state (for
// /progress ETA) lives here, guarded by a mutex that only scrapers
// contend on — never the simulator.
type Server struct {
	cfg Config
	mux *http.ServeMux

	srv  *http.Server
	done chan struct{}

	mu       sync.Mutex
	lastDone uint64
	lastAt   time.Time
	rate     float64 // done-units per second, EWMA
}

// New builds a server for the config. Mount Handler on an existing mux
// or call Start to listen.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/flight", s.handleFlight)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// Start listens on addr (":0" picks a free port) and serves in a
// background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs server: %w", err)
	}
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	}()
	return ln.Addr().String(), nil
}

// Close stops the listener and waits for the serve loop to exit.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	<-s.done
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Registry.WriteProm(w) //nolint:errcheck // client went away
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Health != nil {
		if err := s.cfg.Health(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// progressView is the /progress response body.
type progressView struct {
	obs.ProgressSnapshot
	// RatePerSec is the EWMA of done-units per wall second, estimated
	// across scrapes.
	RatePerSec float64 `json:"rate_per_sec"`
	// ETASeconds estimates seconds until done == total (0 when the rate
	// or remaining work is unknown).
	ETASeconds float64 `json:"eta_seconds"`
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	snap := s.cfg.Progress.Snapshot()
	view := progressView{ProgressSnapshot: snap}
	view.RatePerSec = s.observeRate(snap.Done, time.Now())
	if view.RatePerSec > 0 && snap.Total > snap.Done {
		view.ETASeconds = float64(snap.Total-snap.Done) / view.RatePerSec
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(view) //nolint:errcheck // client went away
}

// observeRate folds one (done, now) observation into the throughput
// EWMA and returns the updated estimate.
func (s *Server) observeRate(done uint64, now time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastAt.IsZero() {
		s.lastDone, s.lastAt = done, now
		return 0
	}
	dt := now.Sub(s.lastAt).Seconds()
	if dt <= 0 {
		return s.rate
	}
	if done < s.lastDone {
		// The run restarted its counters; re-seed.
		s.lastDone, s.lastAt, s.rate = done, now, 0
		return 0
	}
	sample := float64(done-s.lastDone) / dt
	if s.rate == 0 {
		s.rate = sample
	} else {
		s.rate = ewmaAlpha*sample + (1-ewmaAlpha)*s.rate
	}
	s.lastDone, s.lastAt = done, now
	return s.rate
}

func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/jsonl")
	s.cfg.Flight.WriteJSONL(w) //nolint:errcheck // client went away
}
