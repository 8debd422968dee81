package httpapi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/service"
)

// eventInterval floors the snapshot rate of job event streams:
// frequent enough to feel live, coarse enough that a thousand watchers
// cost almost nothing. Clients may ask for a slower stream with
// ?interval=, never a faster one.
const eventInterval = 100 * time.Millisecond

// serveJobEvents streams a job's snapshots as server-sent events until
// the job finishes or the client disconnects:
//
//	event: progress            non-terminal snapshot (JobView JSON)
//	event: complete            terminal snapshot, report attached
//
// Snapshots are pushed from the job's own progress signal — no polling
// on either side of the connection. ?interval= (a Go duration) slows
// the stream below the server floor; the terminal event always flushes
// immediately regardless of interval.
func serveJobEvents(svc *service.Service, w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	interval := eventInterval
	if q := r.URL.Query().Get("interval"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad interval %q: %v", q, err))
			return
		}
		if d > interval {
			interval = d
		}
	}
	ch, err := svc.Watch(r.Context(), r.PathValue("id"), interval)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no") // defeat buffering reverse proxies
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	seq := 0
	for jv := range ch {
		name := "progress"
		var payload any = jv
		if jv.State.Terminal() {
			name = "complete"
			payload = withReport(svc, jv)
		}
		if err := writeEvent(w, seq, name, payload); err != nil {
			return // client gone; Watch unwinds via r.Context()
		}
		flusher.Flush()
		seq++
	}
}

// writeEvent emits one SSE frame. The JSON payload is a single line
// (encoding/json never emits raw newlines), so one data: field holds
// the whole event.
func writeEvent(w io.Writer, id int, name string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, name, data)
	return err
}

// Event is one parsed server-sent event.
type Event struct {
	ID   string
	Name string
	Data []byte
}

// ReadSSE parses a text/event-stream body, calling fn for each event
// until the stream ends, ctx-free: cancel by closing the reader (the
// HTTP response body). fn returning an error stops the scan and
// returns that error; a clean end of stream returns nil. Shared by
// cogsim's follow mode, the load generator and the tests, so all
// clients agree with the server on framing.
func ReadSSE(r io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var ev Event
	pending := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // blank line terminates an event
			if pending {
				if err := fn(ev); err != nil {
					return err
				}
				ev, pending = Event{}, false
			}
		case strings.HasPrefix(line, ":"): // comment / keep-alive
		case strings.HasPrefix(line, "id:"):
			ev.ID, pending = strings.TrimSpace(line[len("id:"):]), true
		case strings.HasPrefix(line, "event:"):
			ev.Name, pending = strings.TrimSpace(line[len("event:"):]), true
		case strings.HasPrefix(line, "data:"):
			chunk := strings.TrimPrefix(line[len("data:"):], " ")
			if len(ev.Data) > 0 {
				ev.Data = append(ev.Data, '\n')
			}
			ev.Data, pending = append(ev.Data, chunk...), true
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if pending { // stream ended without a trailing blank line
		return fn(ev)
	}
	return nil
}
