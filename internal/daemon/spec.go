// Package daemon is the resident conversion/analysis service: an HTTP
// front door over engine.Run with a bounded FIFO job queue, per-job
// isolation, concurrent multi-tenant execution on the shared BGZF
// deflate pool, and admission control that sheds load before
// saturation. A job arrives as a validated JSON spec (plus an optional
// streamed input upload), moves through the queued → running →
// done/failed/canceled state machine, and its result streams back over
// the same connection class that submitted it. With a pre-registered
// worker fleet (seqconvd -worker) a job with Ranks > 1 fans out across
// the mpinet transport unmodified.
package daemon

import (
	"fmt"
	"strings"

	"parseq/internal/engine"
)

// JobSpec is the daemon's wire format: the engine's job description,
// unchanged. The Op names are re-exported for clients that build specs.
type JobSpec = engine.Spec

const (
	OpConvert  = engine.OpConvert
	OpSort     = engine.OpSort
	OpFlagstat = engine.OpFlagstat
	OpHist     = engine.OpHist
	OpPeaks    = engine.OpPeaks
)

// FileInfo describes one job output file.
type FileInfo = engine.File

// opShutdown is the fleet-internal sentinel broadcast to workers when
// the daemon drains; it is never a valid submitted op.
const opShutdown = "__shutdown__"

// distributable reports whether a spec's engine path runs the same
// launcher call sequence on every fleet process. Only the SAM-input
// engines to per-rank targets qualify: the BAM/psam converters, the
// container targets and the shard analyses aggregate per-process file
// lists that distributed execution leaves partially empty.
func distributable(spec *JobSpec) error {
	name := spec.InputBase()
	switch spec.Op {
	case OpConvert:
		kind, err := spec.ConverterKind()
		if err != nil {
			return err
		}
		if kind != "sam" {
			return fmt.Errorf("daemon: converter %q does not support fleet ranks; use converter sam or ranks 1", kind)
		}
		if spec.WritesContainer() {
			return fmt.Errorf("daemon: format %s does not support fleet ranks; use a per-rank format or ranks 1", spec.Format)
		}
	case OpFlagstat, OpHist:
		if !strings.HasSuffix(name, ".sam") {
			return fmt.Errorf("daemon: op %s over %q does not support fleet ranks; use a .sam input or ranks 1", spec.Op, name)
		}
	default:
		return fmt.Errorf("daemon: op %s does not support fleet ranks", spec.Op)
	}
	return nil
}

// Error is the structured JSON error body every non-2xx response
// carries: a stable machine-readable code plus a human message.
type Error struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

// Error codes. BadSpec and friends are contract, not prose: clients
// branch on them.
const (
	CodeBadSpec       = "bad_spec"
	CodeOverloaded    = "overloaded"
	CodeDraining      = "draining"
	CodeNotFound      = "not_found"
	CodeNotDone       = "not_done"
	CodeBadMethod     = "bad_method"
	CodeUploadFailed  = "upload_failed"
	CodeFleetRequired = "fleet_required"
)

func (e *Error) Error() string { return e.Message }
