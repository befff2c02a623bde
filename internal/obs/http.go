package obs

import (
	"encoding/json"
	"net/http"
)

// Handler returns an http.Handler exposing the registry:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON snapshot of every instrument
//	/trace         the recorder's span records as JSON (?clear=1 drops them after)
//	/slow          its op records at or above the slow threshold as JSON
//	/flight        every record in the ring as JSON (?clear=1 empties it after)
//
// It is what cmd/orion-shell serves under -metrics; anything holding a
// *Registry can mount it.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, r.Snapshot())
	})
	rec := r.Recorder()
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, rec.Trace())
		if req.URL.Query().Get("clear") == "1" {
			rec.ClearTrace()
		}
	})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, rec.Slow())
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, rec.Records())
		if req.URL.Query().Get("clear") == "1" {
			rec.Clear()
		}
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
