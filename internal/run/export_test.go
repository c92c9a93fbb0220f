package run

import "sync/atomic"

var probePins atomic.Int64

// SetPinnedProbe switches the page-pinning probe (onProbePin), whose pins
// ProbePins then counts. Set it only while no search is in flight.
func SetPinnedProbe(on bool) {
	onProbePin = nil
	if on {
		onProbePin = func() { probePins.Add(1) }
	}
}

// ProbePins returns the first-key pins made under SetPinnedProbe so far.
func ProbePins() int64 { return probePins.Load() }
