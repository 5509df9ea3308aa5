package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// Job states, as reported by GET /jobs/{id}.
const (
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus is the JSON body of GET /jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Done / Total track per-cell progress (cache hits count as done).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Error is set when the job failed outright (the grid never ran) —
	// per-cell failures stay inside the results' error fields instead.
	Error string `json:"error,omitempty"`
	// ResultsURL serves the results document once the job is done.
	ResultsURL string `json:"results_url,omitempty"`
}

// Job is one asynchronous sweep execution. It is exported (together with
// JobRegistry) because the cluster coordinator exposes the identical
// /jobs/{id} polling protocol: one implementation, two services.
type Job struct {
	id string

	mu      sync.Mutex
	state   string
	done    int
	total   int
	err     string
	results []byte // WriteJSON bytes, set when state == JobDone
}

// Status snapshots the job for GET /jobs/{id}.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, State: j.state, Done: j.done, Total: j.total, Error: j.err}
	if j.state == JobDone {
		st.ResultsURL = "/jobs/" + j.id + "/results"
	}
	return st
}

// Progress records per-cell completion progress.
func (j *Job) Progress(done int) {
	j.mu.Lock()
	j.done = done
	j.mu.Unlock()
}

// Finish moves the job out of the running state. A nil results document
// with a non-nil error marks the job failed; otherwise the job is done
// and err (per-cell failures, already inside the document) is dropped.
func (j *Job) Finish(results []byte, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil && results == nil {
		j.state = JobFailed
		j.err = err.Error()
		return
	}
	// Per-cell errors travel inside the results document, matching the
	// CLI: the job itself completed.
	j.state = JobDone
	j.results = results
	j.done = j.total
}

// ResultBytes returns the results document once the job is done.
func (j *Job) ResultBytes() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.results, j.state == JobDone
}

// JobRegistry tracks asynchronous sweeps. Completed jobs are retained up
// to a bound so poll results stay available for a while without growing
// without limit; running jobs are never evicted.
type JobRegistry struct {
	mu       sync.Mutex
	seq      int
	byID     map[string]*Job
	finished []string // completed job IDs in completion order
	maxDone  int
}

// NewJobRegistry builds a registry retaining up to maxDone finished jobs
// (minimum 1).
func NewJobRegistry(maxDone int) *JobRegistry {
	if maxDone < 1 {
		maxDone = 1
	}
	return &JobRegistry{byID: map[string]*Job{}, maxDone: maxDone}
}

// Create registers a new running job over total cells.
func (r *JobRegistry) Create(total int) *Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	j := &Job{id: fmt.Sprintf("job-%d", r.seq), state: JobRunning, total: total}
	r.byID[j.id] = j
	return j
}

// Get looks a job up by ID.
func (r *JobRegistry) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byID[id]
	return j, ok
}

// Complete records that a job left the running state and evicts the
// oldest finished jobs beyond the retention bound.
func (r *JobRegistry) Complete(j *Job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished = append(r.finished, j.id)
	for len(r.finished) > r.maxDone {
		delete(r.byID, r.finished[0])
		r.finished = r.finished[1:]
	}
}

// HandleHTTP serves GET /jobs/{id} and GET /jobs/{id}/results from the
// registry. The sweep server and the cluster coordinator both mount it,
// so polling clients cannot tell them apart.
func (r *JobRegistry) HandleHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		HTTPError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	rest := strings.TrimPrefix(req.URL.Path, "/jobs/")
	id, wantResults := rest, false
	if sub, ok := strings.CutSuffix(rest, "/results"); ok {
		id, wantResults = sub, true
	}
	j, ok := r.Get(id)
	if !ok || id == "" || strings.Contains(id, "/") {
		HTTPError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if !wantResults {
		WriteJSON(w, http.StatusOK, j.Status())
		return
	}
	blob, done := j.ResultBytes()
	if !done {
		HTTPError(w, http.StatusConflict, "job %s is %s, results not available", id, j.Status().State)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}
