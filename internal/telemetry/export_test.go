package telemetry

import "io"

// SetHeapSink replaces how r opens its heap profile sink, so external
// tests can inject failing writers.
func SetHeapSink(r *FlightRecorder, open func(path string) (io.WriteCloser, error)) {
	r.openHeap = open
}
