package telemetry

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDisabledGuardsInline pins the structural half of the disabled
// hot-path budget (TestDisabledHotPathUnder5ns times the other half):
// every nil-safe entry point instrumented code calls on a possibly nil
// handle must compile to an inlinable nil guard, with the enabled work
// outlined, so a disabled handle costs a compare and a branch rather
// than a call. The compiler's own inlining report is the oracle.
func TestDisabledGuardsInline(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the package; skipped in -short mode")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command(gobin, "build", "-gcflags=-m=2", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	report := string(out)
	for _, fn := range []string{
		"(*Counter).Inc",
		"(*Collector).Trace",
		"(*Collector).RunSpanChild",
		"(*Collector).ExplainTick",
		"(*Collector).StartAllocPhase",
		"AllocPhase.End",
		"(*Span).End",
		"(*FlightRecorder).Note",
		"(*FlightRecorder).Trigger",
		"(*History).Record",
		"(*History).Len",
	} {
		if !strings.Contains(report, ": can inline "+fn+" ") {
			why := "not mentioned in the report"
			for _, line := range strings.Split(report, "\n") {
				if strings.Contains(line, "cannot inline "+fn+":") {
					why = line
				}
			}
			t.Errorf("%s does not inline: %s", fn, why)
		}
	}
}
