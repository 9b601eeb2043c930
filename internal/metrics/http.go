package metrics

import (
	"fmt"
	"net/http"
)

// Route is one endpoint of the HTTP plane: the mux pattern it is served
// at and what the index page says about it. A Route without a Handler
// is listed and not mounted — a query form of the route above it.
type Route struct {
	Path    string
	Help    string
	Handler http.Handler
}

// Text serves whatever render returns as a plain-text page.
func Text(render func() string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, render())
	})
}

// Handler serves a metric view over HTTP (stdlib only). The mux and the
// index page are both made from one ordered route list — these four
// around the caller's routes (fidr.NewNode lists a node's):
//
//	/metrics              live registry dump
//	/metrics?format=prom  Prometheus text exposition
//	/healthz              liveness probe
//	/readyz               readiness probe
//
// and GET / prints the list, one "path  help" line per route, exactly
// as above. /metrics is WriteMetricsText, or WriteProm with
// ?format=prom; /healthz is 200 "ok" while serving; /readyz is 200
// "ready", or 503 "not ready" while ready (when not nil) says false.
//
// g may be a single Registry or a composed cluster view (Multi over
// prefixed group registries, merged series and derived gauges). The
// handler is safe to serve while metrics are being updated; snapshots
// read only atomics.
func Handler(g Gatherer, ready func() bool, routes []Route) http.Handler {
	all := append([]Route{
		{"/metrics", "live registry dump", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ms := g.Snapshot()
			if r.URL.Query().Get("format") == "prom" {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				WriteProm(w, ms)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			WriteMetricsText(w, ms)
		})},
		{"/metrics?format=prom", "Prometheus text exposition", nil},
	}, routes...)
	all = append(all,
		Route{"/healthz", "liveness probe", Text(func() string { return "ok\n" })},
		Route{"/readyz", "readiness probe", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if ready != nil && !ready() {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, "not ready")
				return
			}
			fmt.Fprintln(w, "ready")
		})})

	mux := http.NewServeMux()
	index := "fidr metrics endpoints:\n"
	for _, r := range all {
		index += fmt.Sprintf("  %-22s%s\n", r.Path, r.Help)
		if r.Handler != nil {
			mux.Handle(r.Path, r.Handler)
		}
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, index)
	})
	return mux
}
