package resilience

import "testing"

// TestRetryBudget drives a Budget directly: spends drain it to a
// denial, successes refund Ratio tokens each, and refunds never lift
// the balance past Capacity. A nil budget allows every retry.
func TestRetryBudget(t *testing.T) {
	b := &Budget{Capacity: 2, Ratio: 0.5}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("untouched budget holds %v tokens, want Capacity 2", got)
	}
	if !b.Spend() || !b.Spend() {
		t.Fatal("a full budget must allow Capacity retries")
	}
	if b.Spend() {
		t.Fatal("a drained budget must deny the retry")
	}
	// Two successes buy one retry back at Ratio 0.5.
	b.Refund()
	if b.Spend() {
		t.Fatal("half a token must not allow a retry")
	}
	b.Refund()
	if got := b.Tokens(); got != 1 {
		t.Fatalf("after two refunds: %v tokens, want 1", got)
	}
	if !b.Spend() {
		t.Fatal("a refunded token must allow one retry")
	}
	// The cap: a long success streak saturates at Capacity.
	for range 100 {
		b.Refund()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("after a success streak: %v tokens, want the cap 2", got)
	}

	var none *Budget
	if !none.Spend() {
		t.Fatal("a nil budget must allow every retry")
	}
	none.Refund() // must not panic
	if got := none.Tokens(); got != 0 {
		t.Fatalf("nil budget tokens = %v, want 0", got)
	}
}

// TestRetryBudgetDefaults: the zero Budget is Capacity 10, Ratio 0.1.
func TestRetryBudgetDefaults(t *testing.T) {
	var b Budget
	for i := range 10 {
		if !b.Spend() {
			t.Fatalf("default budget denied retry %d of 10", i+1)
		}
	}
	if b.Spend() {
		t.Fatal("default budget allowed an 11th retry")
	}
	b.Refund()
	if got := b.Tokens(); got != 0.1 {
		t.Fatalf("one refund at the default Ratio: %v tokens, want 0.1", got)
	}
}
