package metrics

import (
	"fmt"
	"net/http"
)

// HandlerOptions configures the optional endpoints of Handler. Any nil
// field disables its endpoint.
type HandlerOptions struct {
	// Traces renders the recent request traces (GET /traces); usually
	// (*span.Collector).RenderRecent.
	Traces func() string
	// Slow renders the slow-trace retention (GET /traces/slow);
	// usually (*span.Collector).RenderSlow.
	Slow func() string
	// Sampler serves the sampled time series (GET /metrics/series).
	Sampler *Sampler
	// Spans serves the distributed-trace span trees
	// (GET /traces/spans?id=<trace-id>); usually a *span.Collector.
	Spans http.Handler
	// SLO serves the error-budget dashboard (GET /slo); usually an *SLO.
	SLO http.Handler
	// Capacity serves the reduction-attribution ledger and GC advice
	// (GET /capacity, JSON).
	Capacity http.Handler
	// CapacityContainers serves the container heatmap
	// (GET /capacity/containers, JSON).
	CapacityContainers http.Handler
	// Events serves the structured event journal (GET /events, JSONL);
	// usually an *events.Journal.
	Events http.Handler
	// DebugBundle serves the snapshot recorder's ring as a tarball
	// (GET /debug/bundle); usually a *health.Recorder.
	DebugBundle http.Handler
	// Ready reports readiness for GET /readyz: 200 when true, 503
	// otherwise. When nil, /readyz behaves like /healthz (always ready
	// once serving).
	Ready func() bool
}

// Handler serves a metric view over HTTP (stdlib only):
//
//	GET /metrics             plain-text dump (see WriteMetricsText)
//	GET /metrics?format=prom Prometheus text exposition (see WriteProm)
//	GET /metrics/series      sampled time series as JSON (with Sampler)
//	GET /traces              recent request traces (with Traces)
//	GET /traces/slow         slow-trace retention (with Slow)
//	GET /healthz             liveness: always 200 "ok" while serving
//	GET /readyz              readiness: 200 "ready" / 503 "not ready"
//	GET /                    index of the above
//
// g may be a single Registry or a composed cluster view (Multi over
// prefixed group registries, merged series and derived gauges). The
// handler is safe to serve while metrics are being updated; snapshots
// read only atomics.
func Handler(g Gatherer, opt HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		ms := g.Snapshot()
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			WriteProm(w, ms)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteMetricsText(w, ms)
	})
	if opt.Sampler != nil {
		mux.Handle("/metrics/series", opt.Sampler)
	}
	if opt.Traces != nil {
		mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, opt.Traces())
		})
	}
	if opt.Slow != nil {
		mux.HandleFunc("/traces/slow", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, opt.Slow())
		})
	}
	if opt.Spans != nil {
		mux.Handle("/traces/spans", opt.Spans)
	}
	if opt.SLO != nil {
		mux.Handle("/slo", opt.SLO)
	}
	if opt.Capacity != nil {
		mux.Handle("/capacity", opt.Capacity)
	}
	if opt.CapacityContainers != nil {
		mux.Handle("/capacity/containers", opt.CapacityContainers)
	}
	if opt.Events != nil {
		mux.Handle("/events", opt.Events)
	}
	if opt.DebugBundle != nil {
		mux.Handle("/debug/bundle", opt.DebugBundle)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if opt.Ready != nil && !opt.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "not ready")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "fidr metrics endpoints:")
		fmt.Fprintln(w, "  /metrics              live registry dump")
		fmt.Fprintln(w, "  /metrics?format=prom  Prometheus text exposition")
		if opt.Sampler != nil {
			fmt.Fprintln(w, "  /metrics/series       sampled time series (JSON)")
		}
		if opt.Traces != nil {
			fmt.Fprintln(w, "  /traces               recent request traces")
		}
		if opt.Slow != nil {
			fmt.Fprintln(w, "  /traces/slow          slow-trace retention")
		}
		if opt.Spans != nil {
			fmt.Fprintln(w, "  /traces/spans         distributed-trace span trees (?id=<trace-id>)")
		}
		if opt.SLO != nil {
			fmt.Fprintln(w, "  /slo                  SLO error budgets and burn rates (JSON)")
		}
		if opt.Capacity != nil {
			fmt.Fprintln(w, "  /capacity             reduction attribution, garbage debt, GC advice (JSON)")
		}
		if opt.CapacityContainers != nil {
			fmt.Fprintln(w, "  /capacity/containers  container heatmap by dead fraction and age (JSON)")
		}
		if opt.Events != nil {
			fmt.Fprintln(w, "  /events               structured event journal (JSONL; ?since= ?type= ?n=)")
		}
		if opt.DebugBundle != nil {
			fmt.Fprintln(w, "  /debug/bundle         snapshot-recorder bundle (tar.gz; ?n=)")
		}
		fmt.Fprintln(w, "  /healthz              liveness probe")
		fmt.Fprintln(w, "  /readyz               readiness probe")
	})
	return mux
}
