package obs

import (
	"testing"
)

func TestObserveExemplarLargestWins(t *testing.T) {
	h := NewHistogram()
	// Same bucket (values within one growth factor): the larger value's task
	// becomes the exemplar regardless of order.
	h.ObserveExemplar(10.0, 1)
	h.ObserveExemplar(10.5, 2)
	h.ObserveExemplar(10.2, 3)
	if _, task := h.QuantileExemplar(1); task != 2 {
		t.Fatalf("bucket exemplar task = %d, want 2 (largest value)", task)
	}
	// Exact tie: first seen wins, so replays are deterministic.
	h2 := NewHistogram()
	h2.ObserveExemplar(5, 7)
	h2.ObserveExemplar(5, 8)
	if _, task := h2.QuantileExemplar(1); task != 7 {
		t.Fatalf("tie exemplar task = %d, want 7 (first seen)", task)
	}
}

func TestQuantileExemplar(t *testing.T) {
	h := NewHistogram()
	// Values far apart land in distinct buckets: the quantile names the task
	// of its own bucket.
	h.ObserveExemplar(1, 10)
	h.ObserveExemplar(100, 20)
	h.ObserveExemplar(10000, 30)
	v, task := h.QuantileExemplar(1)
	if task != 30 || v != h.Quantile(1) {
		t.Fatalf("p100 = (%v, T%d), want (%v, T30)", v, task, h.Quantile(1))
	}
	if _, task := h.QuantileExemplar(0); task != 10 {
		t.Fatalf("p0 task = %d, want 10", task)
	}
	if _, task := h.QuantileExemplar(0.5); task != 20 {
		t.Fatalf("p50 task = %d, want 20", task)
	}
	if h.Exemplars() != 3 {
		t.Fatalf("Exemplars() = %d, want 3", h.Exemplars())
	}
}

func TestQuantileExemplarZeroBucket(t *testing.T) {
	h := NewHistogram()
	h.ObserveExemplar(0, 5)
	h.ObserveExemplar(-1, 6) // ≤ 0 shares the zero bucket; 0 > −1 keeps T5
	if _, task := h.QuantileExemplar(0); task != 5 {
		t.Fatalf("zero-bucket task = %d, want 5", task)
	}
}

func TestQuantileExemplarWithoutExemplars(t *testing.T) {
	h := NewHistogram()
	if _, task := h.QuantileExemplar(0.5); task != -1 {
		t.Fatalf("empty histogram task = %d, want -1", task)
	}
	h.Observe(3) // plain path records no exemplar
	v, task := h.QuantileExemplar(0.5)
	if task != -1 || v != h.Quantile(0.5) {
		t.Fatalf("plain-observe = (%v, %d), want (%v, -1)", v, task, h.Quantile(0.5))
	}
	// Mixed: the bucket fed only by Observe stays exemplar-less while the
	// instrumented one answers.
	h.ObserveExemplar(1000, 9)
	if _, task := h.QuantileExemplar(1); task != 9 {
		t.Fatalf("instrumented bucket task = %d, want 9", task)
	}
	if _, task := h.QuantileExemplar(0); task != -1 {
		t.Fatalf("plain bucket task = %d, want -1", task)
	}
}

func TestHistogramProbeExemplars(t *testing.T) {
	p := NewHistogramProbe()
	h := hooks(p)
	h.OnComplete(3, 0, 0, 2, 10)  // flow 10, stretch 5
	h.OnComplete(4, 0, 5, 1, 105) // flow 100, stretch 100
	if _, task := p.Flow.QuantileExemplar(1); task != 4 {
		t.Fatalf("flow tail exemplar = T%d, want T4", task)
	}
	if _, task := p.Stretch.QuantileExemplar(1); task != 4 {
		t.Fatalf("stretch tail exemplar = T%d, want T4", task)
	}
	// A zero-proc completion (no engine sends one) counts as stretch 0 and
	// lands in the zero bucket with the task attached.
	h.OnComplete(7, 0, 0, 0, 1)
	if _, task := p.Stretch.QuantileExemplar(0); task != 7 {
		t.Fatalf("zero-proc stretch exemplar = T%d, want T7", task)
	}
}
