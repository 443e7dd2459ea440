// The HTTP front door. Three verbs over /v1/jobs:
//
//	POST   /v1/jobs              submit (JSON spec, or streamed input
//	                             upload with the spec in X-Seqconvd-Spec)
//	GET    /v1/jobs              list every job
//	GET    /v1/jobs/{id}         job status
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/jobs/{id}/result  stream one output file
//
// Every non-2xx response body is a structured daemon.Error; shed
// submissions are 429 with Retry-After, drain-time submissions 503.
// Install mounts onto a caller-owned mux — seqconvd shares one mux (and
// one listener) between this API and obs.Server's /metrics, /progress,
// /trace and pprof handlers.

package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"parseq/internal/engine"
)

// SpecHeader carries the JSON job spec on upload submissions, whose
// body is the streamed input file.
const SpecHeader = "X-Seqconvd-Spec"

// Install mounts the job API on mux.
func (d *Daemon) Install(mux *http.ServeMux) {
	mux.HandleFunc("/v1/jobs", d.handleJobs)
	mux.HandleFunc("/v1/jobs/", d.handleJob)
}

// writeError sends one structured error body, with Retry-After on
// rejections that carry a retry hint.
func writeError(w http.ResponseWriter, status int, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", e.RetryAfter))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(e)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (d *Daemon) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		d.handleSubmit(w, r)
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{
			"jobs": d.statuses(), "draining": d.Draining(),
		})
	default:
		writeError(w, http.StatusMethodNotAllowed,
			&Error{Code: CodeBadMethod, Message: "use POST to submit or GET to list"})
	}
}

// handleSubmit admits one job. Two submission shapes:
//
//   - Content-Type application/json: the body is the spec alone and
//     spec.input_path names a daemon-visible file.
//   - anything else: the spec rides in the X-Seqconvd-Spec header (or
//     ?spec= for clients that cannot set headers) and the body streams
//     the input, spooled into the job directory before queueing.
func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if d.Draining() {
		writeError(w, http.StatusServiceUnavailable,
			&Error{Code: CodeDraining, Message: "daemon is draining; not accepting jobs"})
		return
	}

	var (
		specJSON []byte
		upload   bool
		err      error
	)
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		specJSON, err = io.ReadAll(io.LimitReader(r.Body, engine.MaxSpecLen+1))
		if err != nil {
			writeError(w, http.StatusBadRequest,
				&Error{Code: CodeBadSpec, Message: "reading spec body: " + err.Error()})
			return
		}
	} else {
		upload = true
		if h := r.Header.Get(SpecHeader); h != "" {
			specJSON = []byte(h)
		} else {
			specJSON = []byte(r.URL.Query().Get("spec"))
		}
	}

	spec, err := engine.DecodeSpec(specJSON)
	if err != nil {
		writeError(w, http.StatusBadRequest, &Error{Code: CodeBadSpec, Message: err.Error()})
		return
	}
	if upload && spec.InputPath != "" {
		writeError(w, http.StatusBadRequest, &Error{Code: CodeBadSpec,
			Message: "input_path and a request-body upload are mutually exclusive"})
		return
	}
	if !upload && spec.InputPath == "" {
		writeError(w, http.StatusBadRequest, &Error{Code: CodeBadSpec,
			Message: "JSON submissions need input_path; stream the file to upload instead"})
		return
	}

	// A job for the fleet that no world can run is refused here, before
	// it can reach (and abort) the fleet.
	if d.fleet != nil && spec.Ranks > 1 && spec.Ranks == d.fleet.Size() {
		if err := spec.CheckWorld(); err != nil {
			writeError(w, http.StatusBadRequest, &Error{Code: CodeBadSpec, Message: err.Error()})
			return
		}
	}

	// Size the admission decision: the upload's declared length, or the
	// referenced input's on-disk size.
	var incoming int64
	if upload {
		if r.ContentLength > 0 {
			incoming = r.ContentLength
		}
	} else {
		fi, err := os.Stat(spec.InputPath)
		if err != nil {
			writeError(w, http.StatusBadRequest,
				&Error{Code: CodeBadSpec, Message: "input_path: " + err.Error()})
			return
		}
		incoming = fi.Size()
	}
	if dec := d.admit(incoming); !dec.Admit {
		writeError(w, http.StatusTooManyRequests, &Error{
			Code:       CodeOverloaded,
			Message:    dec.Reason + ": " + dec.Detail,
			RetryAfter: int(dec.RetryAfter.Seconds()),
		})
		return
	}

	job, err := d.register(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError,
			&Error{Code: CodeUploadFailed, Message: err.Error()})
		return
	}
	job.inputBytes = incoming
	if upload {
		n, err := spoolUpload(job.inputPath, r.Body)
		if err != nil {
			os.RemoveAll(job.dir)
			writeError(w, http.StatusBadRequest,
				&Error{Code: CodeUploadFailed, Message: "spooling input: " + err.Error()})
			return
		}
		job.inputBytes = n
		// A chunked upload's size was unknown at the admission check;
		// hold it to the byte budget now that it is.
		if r.ContentLength < 0 && d.inflight.Load()+n > d.policy.MaxBytes {
			os.RemoveAll(job.dir)
			writeError(w, http.StatusTooManyRequests, &Error{
				Code:       CodeOverloaded,
				Message:    ReasonBytes + ": chunked upload overran the in-flight byte budget",
				RetryAfter: 1,
			})
			return
		}
	}

	if derr := d.enqueue(job); derr != nil {
		os.RemoveAll(job.dir)
		status := http.StatusTooManyRequests
		if derr.Code == CodeDraining {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, derr)
		return
	}
	writeJSON(w, http.StatusAccepted, job.status())
}

// spoolUpload streams the request body to the job's input file.
func spoolUpload(dst string, body io.Reader) (int64, error) {
	f, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(f, body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

func (d *Daemon) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	job, ok := d.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			&Error{Code: CodeNotFound, Message: fmt.Sprintf("no job %q", id)})
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, job.status())
	case sub == "" && r.Method == http.MethodDelete:
		job.requestCancel()
		writeJSON(w, http.StatusOK, job.status())
	case sub == "result" && r.Method == http.MethodGet:
		d.handleResult(w, r, job)
	case sub == "" || sub == "result":
		writeError(w, http.StatusMethodNotAllowed,
			&Error{Code: CodeBadMethod, Message: "unsupported method " + r.Method})
	default:
		writeError(w, http.StatusNotFound,
			&Error{Code: CodeNotFound, Message: "unknown resource " + r.URL.Path})
	}
}

// handleResult streams one output file of a done job. Multi-file
// results (rank-sharded conversions) select with ?file=; the bare URL
// works when there is exactly one file.
func (d *Daemon) handleResult(w http.ResponseWriter, r *http.Request, job *Job) {
	files, err := job.resultFiles()
	if err != nil {
		writeError(w, http.StatusConflict, &Error{Code: CodeNotDone, Message: err.Error()})
		return
	}
	want := r.URL.Query().Get("file")
	var pick *FileInfo
	switch {
	case want == "" && len(files) == 1:
		pick = &files[0]
	case want == "":
		names := make([]string, len(files))
		for i, f := range files {
			names[i] = f.Name
		}
		writeError(w, http.StatusBadRequest, &Error{Code: CodeBadSpec,
			Message: "job has several output files; pass ?file= one of: " + strings.Join(names, ", ")})
		return
	default:
		for i := range files {
			if files[i].Name == want {
				pick = &files[i]
				break
			}
		}
		if pick == nil { // also forecloses traversal: only listed names open
			writeError(w, http.StatusNotFound,
				&Error{Code: CodeNotFound, Message: fmt.Sprintf("job has no output file %q", want)})
			return
		}
	}
	f, err := os.Open(filepath.Join(job.dir, pick.Name))
	if err != nil {
		writeError(w, http.StatusInternalServerError,
			&Error{Code: CodeNotFound, Message: err.Error()})
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprintf("%d", pick.Size))
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", pick.Name))
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, f)
}
