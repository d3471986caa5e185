package telemetry

import (
	"bufio"
	"encoding/json"
	"os"
)

// RL decision explainability: controllers sample 1-in-N of their arm
// selections and emit a Decision record carrying everything needed to
// reconstruct why that arm won — the state features the controller
// saw, the per-arm Q-values, the exploration state, and (once the
// reward window drains) the realized reward. Records surface through
// the service's /v1/explain endpoint, the -explain CLI flag
// (decisions.jsonl), and the in-memory ring for tests.
//
// Sampling is deterministic (a per-run tick counter, reset at
// BeginRun and checkpointed like the tracer phase), so the same run
// explains the same decisions regardless of pooling or resume.

// Decision is one sampled, explained controller decision.
type Decision struct {
	// Seq is the controller's access sequence number for the decision.
	Seq uint64 `json:"seq"`
	// Workload and Source label the run the decision belongs to.
	Workload string `json:"workload"`
	Source   string `json:"source"`
	// Epsilon is the exploration rate in force at the decision.
	Epsilon float64 `json:"epsilon"`
	// Explored is true when the arm was chosen by exploration rather
	// than argmax over Q.
	Explored bool `json:"explored"`
	// State is the DQN state-feature vector (nil for tabular).
	State []float64 `json:"state,omitempty"`
	// StateKey is the tabular state token (0 for DQN).
	StateKey uint64 `json:"state_key,omitempty"`
	// Q holds the per-arm Q-values for the visited state.
	Q []float64 `json:"q"`
	// Action is the chosen arm index; ActionName its display name.
	Action     int    `json:"action"`
	ActionName string `json:"action_name"`
	// MaskedArms lists arms excluded by accuracy masking (nil when the
	// mask is disabled or nothing is masked).
	MaskedArms []string `json:"masked_arms,omitempty"`
	// Reward is the realized reward once resolved; Resolved reports
	// whether the reward window confirmed the decision before the
	// record was emitted.
	Reward   float64 `json:"reward"`
	Resolved bool    `json:"resolved"`
}

// ExplainTick reports whether the current decision should be
// explained, advancing the deterministic 1-in-N selection. False for
// a nil collector or when sampling is off — a single branch on the
// hot path.
func (c *Collector) ExplainTick() bool {
	if c == nil || c.cfg.ExplainSample <= 0 {
		return false
	}
	return c.explainTick()
}

func (c *Collector) explainTick() bool {
	c.obsMu.Lock()
	n := c.explainN
	c.explainN++
	c.obsMu.Unlock()
	return n%uint64(c.cfg.ExplainSample) == 0
}

// ExplainSample returns the configured 1-in-N rate (0 = disabled).
func (c *Collector) ExplainSample() int {
	if c == nil {
		return 0
	}
	return c.cfg.ExplainSample
}

// RecordDecision retains one resolved decision, labels it with the
// current run, streams it to the decisions file when one is open, and
// keeps it in the bounded in-memory ring.
func (c *Collector) RecordDecision(d Decision) {
	if c == nil {
		return
	}
	c.obsMu.Lock()
	d.Workload, d.Source = c.runWorkload, c.runSource
	if c.decEnc != nil {
		_ = c.decEnc.Encode(d)
	}
	if c.decCap > 0 && len(c.decisions) >= c.decCap {
		n := copy(c.decisions, c.decisions[len(c.decisions)/2:])
		c.decisions = c.decisions[:n]
	}
	c.decisions = append(c.decisions, d)
	c.obsMu.Unlock()
}

// Decisions returns a copy of the retained decision records, oldest
// first.
func (c *Collector) Decisions() []Decision {
	if c == nil {
		return nil
	}
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	return append([]Decision(nil), c.decisions...)
}

// openExplainOut opens the streaming decisions file.
func (c *Collector) openExplainOut(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	c.decFile = f
	c.decBuf = bufio.NewWriter(f)
	c.decEnc = json.NewEncoder(c.decBuf)
	return nil
}

// closeExplainOut flushes and closes the decisions file, if open.
func (c *Collector) closeExplainOut() error {
	if c.decFile == nil {
		return nil
	}
	var first error
	if err := c.decBuf.Flush(); err != nil {
		first = err
	}
	if err := c.decFile.Close(); err != nil && first == nil {
		first = err
	}
	c.decFile, c.decBuf, c.decEnc = nil, nil, nil
	return first
}
