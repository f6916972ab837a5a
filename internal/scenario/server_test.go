package scenario

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*httptest.Server, *Manager) {
	t.Helper()
	m, err := NewManager(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return srv, m
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeView(t *testing.T, resp *http.Response) JobView {
	t.Helper()
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestServerEndToEnd exercises the full HTTP lifecycle: health probe,
// submit, follow the diag stream to completion, inspect, resume, list.
func TestServerEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	resp = postJSON(t, srv.URL+"/scenarios", tinySpec(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	v := decodeView(t, resp)
	if v.ID != 1 {
		t.Fatalf("submit view: %+v", v)
	}

	// Follow the stream: it must deliver both cycles and terminate on
	// its own once the job is done.
	resp, err = http.Get(srv.URL + "/scenarios/1/diag?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("diag content type %q", ct)
	}
	var diags []CycleDiag
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var d CycleDiag
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad diag line %q: %v", sc.Text(), err)
		}
		diags = append(diags, d)
	}
	resp.Body.Close()
	if len(diags) != 2 || diags[0].Cycle != 1 || diags[1].Cycle != 2 {
		t.Fatalf("streamed %d diag lines: %+v", len(diags), diags)
	}

	resp, err = http.Get(srv.URL + "/scenarios/1")
	if err != nil {
		t.Fatal(err)
	}
	v = decodeView(t, resp)
	if v.State != StateDone || v.CyclesDone != 2 || v.Snapshot == "" {
		t.Fatalf("job view after follow: %+v", v)
	}

	resp = postJSON(t, srv.URL+"/scenarios/1/resume", map[string]int{"cycles": 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume: %s", resp.Status)
	}
	resp.Body.Close()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err = http.Get(srv.URL + "/scenarios/1")
		if err != nil {
			t.Fatal(err)
		}
		v = decodeView(t, resp)
		if v.State != StateQueued && v.State != StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job stuck in %s", v.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v.State != StateDone || v.CyclesDone != 3 {
		t.Fatalf("resumed job: %+v", v)
	}

	// ?from skips already-seen cycles.
	resp, err = http.Get(srv.URL + "/scenarios/1/diag?from=2")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	sc = bufio.NewScanner(resp.Body)
	n := 0
	for sc.Scan() {
		body.WriteString(sc.Text())
		n++
	}
	resp.Body.Close()
	if n != 1 || !strings.Contains(body.String(), `"cycle":3`) {
		t.Fatalf("diag?from=2 returned %d lines: %s", n, body)
	}

	resp, err = http.Get(srv.URL + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobView
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 {
		t.Fatalf("list: %+v", list)
	}
}

// waitTerminalHTTP polls GET /scenarios/{id} until the job leaves the
// queued/running states.
func waitTerminalHTTP(t *testing.T, srv *httptest.Server, id int) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/scenarios/%d", srv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		v := decodeView(t, resp)
		if v.State != StateQueued && v.State != StateRunning {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %d did not reach a terminal state", id)
	return JobView{}
}

// getDiags fetches and parses GET /scenarios/{id}/diag.
func getDiags(t *testing.T, srv *httptest.Server, id int) []CycleDiag {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/scenarios/%d/diag", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []CycleDiag
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var d CycleDiag
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad diag line %q: %v", sc.Text(), err)
		}
		out = append(out, d)
	}
	return out
}

// TestServerStopResumeBitwiseTrajectory drives the whole
// interrupt/resume lifecycle over HTTP — submit, stop, resume twice in
// two installments — and asserts the stitched-together trajectory is
// bit-identical to an uninterrupted run of the same spec: same Nu and
// Vrms float bits, same MINRES iteration counts, same element counts,
// every cycle. A blocker occupies the single worker so the stop almost
// always lands while the job is still queued; under load it may slip in
// a cycle or two later, and the resume installments adapt so the total
// still comes out to exactly 4 cycles — either way the tail of the
// trajectory runs under restore.
func TestServerStopResumeBitwiseTrajectory(t *testing.T) {
	srv, _ := newTestServer(t)
	const cycles = 4

	// Job 1: the uninterrupted reference run.
	resp := postJSON(t, srv.URL+"/scenarios", tinySpec(cycles))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit reference: %s", resp.Status)
	}
	ref := decodeView(t, resp)
	if v := waitTerminalHTTP(t, srv, ref.ID); v.State != StateDone {
		t.Fatalf("reference job finished %s (%q)", v.State, v.Error)
	}

	// Job 2 blocks the single worker while job 3 is stopped in the queue.
	resp = postJSON(t, srv.URL+"/scenarios", tinySpec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit blocker: %s", resp.Status)
	}
	blocker := decodeView(t, resp)
	resp = postJSON(t, srv.URL+"/scenarios", tinySpec(cycles))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit interrupted job: %s", resp.Status)
	}
	job := decodeView(t, resp)
	resp = postJSON(t, srv.URL+fmt.Sprintf("/scenarios/%d/stop", job.ID), map[string]int{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stop: %s", resp.Status)
	}
	resp.Body.Close()
	waitTerminalHTTP(t, srv, blocker.ID)
	v := waitTerminalHTTP(t, srv, job.ID)
	if v.State != StateStopped || v.Snapshot == "" {
		t.Fatalf("stopped job: %+v", v)
	}
	// The stop usually lands while the job is still queued (0 cycles),
	// but under load it may slip in after a cycle or two; either way the
	// job halted early with a committed snapshot.
	if v.CyclesDone >= cycles {
		t.Fatalf("stop request did not interrupt the run: %+v", v)
	}

	// Resume in two installments; each restores from the latest committed
	// snapshot and must keep extending the same trajectory.
	remaining := cycles - v.CyclesDone
	installments := []int{remaining}
	if remaining >= 2 {
		installments = []int{1, remaining - 1}
	}
	for _, extra := range installments {
		resp = postJSON(t, srv.URL+fmt.Sprintf("/scenarios/%d/resume", job.ID), map[string]int{"cycles": extra})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("resume %d: %s", extra, resp.Status)
		}
		resp.Body.Close()
		v = waitTerminalHTTP(t, srv, job.ID)
		if v.State != StateDone {
			t.Fatalf("resumed job finished %s (%q)", v.State, v.Error)
		}
	}
	if v.CyclesDone != cycles {
		t.Fatalf("resumed job completed %d cycles, want %d", v.CyclesDone, cycles)
	}

	want := getDiags(t, srv, ref.ID)
	got := getDiags(t, srv, job.ID)
	if len(want) != cycles || len(got) != cycles {
		t.Fatalf("diag lengths %d, %d, want %d", len(want), len(got), cycles)
	}
	for c := range want {
		x, y := want[c], got[c]
		if math.Float64bits(x.Nu) != math.Float64bits(y.Nu) ||
			math.Float64bits(x.Vrms) != math.Float64bits(y.Vrms) ||
			math.Float64bits(x.Time) != math.Float64bits(y.Time) ||
			x.MinresIters != y.MinresIters || x.Elements != y.Elements || x.Step != y.Step {
			t.Errorf("cycle %d: resumed trajectory diverges from uninterrupted run:\n  straight: %+v\n  resumed:  %+v",
				c+1, x, y)
		}
	}
}

func TestServerErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, c := range []struct {
		method, path string
		body         any
		want         int
	}{
		{http.MethodGet, "/scenarios/7", nil, http.StatusNotFound},
		{http.MethodGet, "/scenarios/7/diag", nil, http.StatusNotFound},
		{http.MethodPost, "/scenarios/7/stop", map[string]int{}, http.StatusNotFound},
		{http.MethodPost, "/scenarios/7/resume", map[string]int{"cycles": 1}, http.StatusNotFound},
		{http.MethodGet, "/scenarios/zero", nil, http.StatusBadRequest},
		{http.MethodPost, "/scenarios", Spec{Kind: "torus", Cycles: 1}, http.StatusBadRequest},
		{http.MethodDelete, "/scenarios", nil, http.StatusMethodNotAllowed},
		{http.MethodGet, "/scenarios/1/unknown", nil, http.StatusNotFound},
	} {
		var resp *http.Response
		var err error
		switch c.method {
		case http.MethodGet:
			resp, err = http.Get(srv.URL + c.path)
		case http.MethodPost:
			resp = postJSON(t, srv.URL+c.path, c.body)
		default:
			req, _ := http.NewRequest(c.method, srv.URL+c.path, nil)
			resp, err = http.DefaultClient.Do(req)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: %s, want %d", c.method, c.path, resp.Status, c.want)
		}
		resp.Body.Close()
	}
}

// followStream opens a follow stream on job id from a goroutine of its
// own (the response headers only arrive with the first line) and reports
// when each diag line arrived; the channel closes at the end of the
// stream.
func followStream(t *testing.T, url string, id int) <-chan time.Time {
	arrived := make(chan time.Time, 64) // more lines than the test below produces
	go func() {
		defer close(arrived)
		resp, err := http.Get(fmt.Sprintf("%s/scenarios/%d/diag?follow=1", url, id))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			arrived <- time.Now()
		}
	}()
	return arrived
}

// TestFollowWakesOnAppend pins that a follower sleeps on the manager's
// change signal, not on a poll interval: a cycle reaches the client
// within 10 ms of appendDiag (median of seven, so one scheduling hiccup
// cannot fail it; a 50 ms poll has a 25 ms median), and the stream of a
// stopped job ends within 10 ms of the job's terminal state.
func TestFollowWakesOnAppend(t *testing.T) {
	const bound = 10 * time.Millisecond
	srv, m := newTestServer(t)

	// A hand-made running job: the test decides when its cycles complete.
	j := &job{id: 1, state: StateRunning, target: 7}
	m.mu.Lock()
	m.jobs = append(m.jobs, j)
	m.mu.Unlock()
	arrived := followStream(t, srv.URL, j.id)
	var lat []time.Duration
	for k := 1; k <= 7; k++ {
		time.Sleep(time.Duration(3+(5*k)%11) * time.Millisecond)
		t0 := time.Now()
		m.appendDiag(j, CycleDiag{Cycle: k})
		select {
		case at := <-arrived:
			lat = append(lat, at.Sub(t0))
		case <-time.After(10 * time.Second):
			t.Fatalf("cycle %d never reached the follower", k)
		}
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	if med := lat[len(lat)/2]; med > bound {
		t.Errorf("median append-to-client latency %v (all: %v), want <= %v", med, lat, bound)
	}
	m.mu.Lock()
	j.state = StateDone
	m.logLocked(jrec{Op: opState, ID: j.id, State: j.state})
	m.mu.Unlock()
	if _, open := <-arrived; open {
		t.Error("stream of the finished job delivered another line")
	}

	// A real job, stopped after its first cycle.
	v, err := m.Submit(tinySpec(50))
	if err != nil {
		t.Fatal(err)
	}
	arrived = followStream(t, srv.URL, v.ID)
	if _, open := <-arrived; !open {
		t.Fatal("stream ended before the first cycle")
	}
	if err := m.Stop(v.ID); err != nil {
		t.Fatal(err)
	}
	var terminal time.Time
	for terminal.IsZero() {
		jv, err := m.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jv.State != StateQueued && jv.State != StateRunning {
			if jv.State != StateStopped {
				t.Fatalf("stopped job reached %s (%q)", jv.State, jv.Error)
			}
			terminal = time.Now()
		}
		time.Sleep(200 * time.Microsecond)
	}
	for range arrived {
	}
	if late := time.Since(terminal); late > bound {
		t.Errorf("follow stream ended %v after the job stopped, want <= %v", late, bound)
	}
}
