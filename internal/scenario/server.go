package scenario

// The HTTP/JSON face of the scenario service. Routing is hand-rolled on
// path segments (the module targets Go 1.21; ServeMux patterns with
// method and wildcard matching arrive in 1.22):
//
//	GET  /healthz                    liveness probe
//	GET  /scenarios                  list all jobs
//	POST /scenarios                  submit a Spec, returns the JobView
//	GET  /scenarios/{id}             one job's view
//	GET  /scenarios/{id}/diag        per-cycle diagnostics as JSON lines;
//	                                 ?from=N skips the first N cycles,
//	                                 ?follow=1 streams until the job is
//	                                 terminal (flushed per batch)
//	POST /scenarios/{id}/resume      body {"cycles": N}: run N more cycles
//	                                 from the latest committed snapshot
//	POST /scenarios/{id}/stop        halt at the next cycle boundary
//	                                 (a resumable snapshot is written)

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// followFallback bounds how long a diag follower sleeps without being
// woken. Followers wake on Manager.changedSignal; the timer is only there
// for a change to a job that some day does not pass through logLocked.
const followFallback = 5 * time.Second

type handler struct {
	m *Manager
}

// NewHandler wraps a Manager in the HTTP routes above.
func NewHandler(m *Manager) http.Handler {
	h := &handler{m: m}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("/scenarios", h.collection)
	mux.HandleFunc("/scenarios/", h.item)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, ErrNotFound) {
		code = http.StatusNotFound
	}
	http.Error(w, err.Error(), code)
}

func (h *handler) collection(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, h.m.List())
	case http.MethodPost:
		var sp Spec
		if err := json.NewDecoder(r.Body).Decode(&sp); err != nil {
			http.Error(w, "invalid spec: "+err.Error(), http.StatusBadRequest)
			return
		}
		v, err := h.m.Submit(sp)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, v)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (h *handler) item(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/scenarios/")
	seg := strings.Split(strings.TrimSuffix(rest, "/"), "/")
	id, err := strconv.Atoi(seg[0])
	if err != nil || id < 1 {
		http.Error(w, "bad scenario id", http.StatusBadRequest)
		return
	}
	switch {
	case len(seg) == 1 && r.Method == http.MethodGet:
		v, err := h.m.Get(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	case len(seg) == 2 && seg[1] == "diag" && r.Method == http.MethodGet:
		h.diag(w, r, id)
	case len(seg) == 2 && seg[1] == "resume" && r.Method == http.MethodPost:
		var req struct {
			Cycles int `json:"cycles"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "invalid resume request: "+err.Error(), http.StatusBadRequest)
			return
		}
		v, err := h.m.Resume(id, req.Cycles)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, v)
	case len(seg) == 2 && seg[1] == "stop" && r.Method == http.MethodPost:
		if err := h.m.Stop(id); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"stopping": true})
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// diag writes per-cycle diagnostics as JSON lines. Without follow it
// dumps what exists and returns; with follow it keeps reading the
// manager each time something changes (state and new cycles are read
// under one lock, so a terminal state observed here implies every cycle
// has been drained). When the retention window has dropped cycles the
// client asked for, the X-Diag-Dropped header carries the count of
// unavailable leading cycles so streamers can detect the truncated
// prefix.
func (h *handler) diag(w http.ResponseWriter, r *http.Request, id int) {
	q := r.URL.Query()
	from, _ := strconv.Atoi(q.Get("from"))
	follow := q.Get("follow") == "1" || q.Get("follow") == "true"
	first := true
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	for {
		changed := h.m.changedSignal()
		ds, dropped, state, err := h.m.Diags(id, from)
		if err != nil {
			if first {
				writeErr(w, err)
			}
			return
		}
		if first {
			w.Header().Set("Content-Type", "application/x-ndjson")
			if dropped > from {
				w.Header().Set("X-Diag-Dropped", strconv.Itoa(dropped))
			}
			w.WriteHeader(http.StatusOK)
			first = false
		}
		for i := range ds {
			if enc.Encode(&ds[i]) != nil {
				return // the client is gone; never skip a line it did not get
			}
		}
		if len(ds) > 0 {
			// Advance by delivered cycle number, not by count: a recovery
			// rewind may re-produce (bit-identical) cycles we already sent.
			from = ds[len(ds)-1].Cycle
			if fl != nil {
				fl.Flush()
			}
		}
		terminal := state != StateQueued && state != StateRunning
		if !follow || terminal {
			return
		}
		fallback := time.NewTimer(followFallback)
		select {
		case <-r.Context().Done():
			fallback.Stop()
			return
		case <-changed:
		case <-fallback.C:
		}
		fallback.Stop()
	}
}
