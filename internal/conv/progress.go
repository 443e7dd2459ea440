// Live conversion progress. The converter's result structs report
// totals only after a range finishes; the observability plane wants the
// numbers while the run is in flight, so the drain loops also bump
// process-wide counters per batch:
//
//	conv.records      records converted so far
//	conv.bytes_in     input bytes consumed
//	conv.bytes_out    output bytes produced
//	conv.bytes_total  input bytes this process's ranks own (gauge)
//
// The /progress endpoint turns these into records/s, bytes/s, completion
// and ETA, and rank 0's straggler detection compares conv.records across
// ranks. All handles are nil-safe: with telemetry disabled the per-batch
// cost is a few nil checks.
package conv

import "parseq/internal/obs"

// liveProgress memoises the counter handles once per drain loop, so the
// per-batch hot path skips the registry's name lookup.
type liveProgress struct {
	records  *obs.Counter
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
}

func newLiveProgress() liveProgress {
	reg := obs.Default()
	return liveProgress{
		records:  reg.Counter("conv.records"),
		bytesIn:  reg.Counter("conv.bytes_in"),
		bytesOut: reg.Counter("conv.bytes_out"),
	}
}

// batch records one drained batch's tallies.
func (lp *liveProgress) batch(records, bytesIn, bytesOut int64) {
	lp.records.Add(records)
	lp.bytesIn.Add(bytesIn)
	lp.bytesOut.Add(bytesOut)
}

// liveFlushEvery is the record loop's counter-flush period in
// records: frequent enough that /progress tracks a live run, rare
// enough that the atomics vanish in the per-line parse cost.
const liveFlushEvery = 4096

// addBytesTotal grows the ETA denominator by one rank's input share.
func addBytesTotal(n int64) {
	obs.Default().Gauge("conv.bytes_total").Add(n)
}
