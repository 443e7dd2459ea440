package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server is the live observability endpoint: an HTTP listener serving
// the process's (and, on rank 0, the whole world's) telemetry while a
// run is in flight, instead of only after it via the -metrics/-trace
// files.
//
//	/metrics       Prometheus text exposition (plus per-rank series
//	               when a WorldView is attached)
//	/progress      JSON: records/s, bytes/s, completion and ETA derived
//	               from the converter's live counters
//	/trace         Chrome trace JSON of everything recorded so far
//	               (clock-aligned across ranks when a view is attached)
//	/debug/pprof/  the standard Go profiling endpoints
type Server struct {
	reg  *Registry
	view *WorldView // nil on non-root ranks
	ln   net.Listener
	srv  *http.Server

	mu   sync.Mutex
	prev progressSample
}

// progressSample is one /progress observation; keeping the previous one
// turns cumulative counters into windowed rates.
type progressSample struct {
	at      time.Time
	records int64
	bytesIn int64
}

// NewServer builds the endpoint's handler state without listening.
// Callers that already run an HTTP front door (seqconvd) construct one
// and Install its routes on their own mux instead of paying a second
// listener; StartServer remains the one-call path for the CLIs.
func NewServer(reg *Registry, view *WorldView) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("obs: metrics server needs a registry")
	}
	return &Server{reg: reg, view: view}, nil
}

// Install registers the observability routes — /metrics, /progress,
// /trace and /debug/pprof/* — on mux.
func (s *Server) Install(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// StartServer starts the observability endpoint on addr (host:port;
// ":0" picks a free port — read it back from Addr). view may be nil.
func StartServer(addr string, reg *Registry, view *WorldView) (*Server, error) {
	s, err := NewServer(reg, view)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener on %s: %w", addr, err)
	}
	s.ln = ln
	mux := http.NewServeMux()
	s.Install(mux)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the listener's resolved address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. In-flight requests are cut off; this runs
// at process teardown where losing a scrape is fine.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	SampleRuntimeGauges(s.reg)
	// The world.* gauges live in the local registry: re-derive them before
	// the snapshot, or the scrape that first shows a rank down still
	// carries the world_down of the scrape before.
	s.view.Refresh()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.reg.Snapshot()
	pw := newPromWriter(w)
	pw.writeSnapshot(&snap, "")
	s.view.writeProm(pw)
}

// Progress is the /progress payload.
type Progress struct {
	Records       int64        `json:"records"`
	BytesIn       int64        `json:"bytes_in"`
	BytesOut      int64        `json:"bytes_out"`
	BytesTotal    int64        `json:"bytes_total,omitempty"`
	RecordsPerSec float64      `json:"records_per_sec"`
	BytesInPerSec float64      `json:"bytes_in_per_sec"`
	Completed     float64      `json:"completed,omitempty"` // 0..1
	ETASeconds    float64      `json:"eta_seconds,omitempty"`
	UptimeSec     float64      `json:"uptime_seconds"`
	Ranks         []RankStatus `json:"ranks,omitempty"`
}

// Snapshot computes the current progress: rates over the window since
// the previous call (falling back to process lifetime on the first).
func (s *Server) progress() Progress {
	now := time.Now()
	p := Progress{
		Records:    s.reg.Counter("conv.records").Value(),
		BytesIn:    s.reg.Counter("conv.bytes_in").Value(),
		BytesOut:   s.reg.Counter("conv.bytes_out").Value(),
		BytesTotal: s.reg.Gauge("conv.bytes_total").Value(),
		UptimeSec:  now.Sub(time.Unix(0, s.reg.EpochWallNS())).Seconds(),
	}

	s.mu.Lock()
	prev := s.prev
	s.prev = progressSample{at: now, records: p.Records, bytesIn: p.BytesIn}
	s.mu.Unlock()

	window := now.Sub(prev.at).Seconds()
	baseRecords, baseBytes := prev.records, prev.bytesIn
	if prev.at.IsZero() || window <= 0 {
		window = p.UptimeSec
		baseRecords, baseBytes = 0, 0
	}
	if window > 0 {
		p.RecordsPerSec = float64(p.Records-baseRecords) / window
		p.BytesInPerSec = float64(p.BytesIn-baseBytes) / window
	}
	if p.BytesTotal > 0 {
		p.Completed = float64(p.BytesIn) / float64(p.BytesTotal)
		if p.Completed > 1 {
			p.Completed = 1
		}
		if remaining := p.BytesTotal - p.BytesIn; remaining > 0 && p.BytesInPerSec > 0 {
			p.ETASeconds = float64(remaining) / p.BytesInPerSec
		}
	}
	p.Ranks = s.view.Ranks()
	return p
}

func (s *Server) handleProgress(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.progress())
}

func (s *Server) handleTrace(w http.ResponseWriter, req *http.Request) {
	if !s.reg.TracingEnabled() && s.view == nil {
		http.Error(w, "tracing not enabled (run with -trace or -metrics-addr)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
	if s.view != nil {
		s.view.WriteMergedTrace(w, s.reg)
		return
	}
	s.reg.WriteTrace(w)
}
