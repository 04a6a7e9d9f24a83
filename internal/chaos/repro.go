package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"flowsched/internal/audit"
	"flowsched/internal/core"
	"flowsched/internal/faults"
	"flowsched/internal/obs"
)

// Repro is a self-contained, replayable reproduction of a failing trial:
// the sampled parameters (router, seed, retry policy), the shrunk instance
// and fault plan, and the violations the configuration produces. Written as
// JSON it can be replayed later — on another machine, after a fix — with
// ReadRepro + Replay.
type Repro struct {
	Params     Params            `json:"params"`
	Violations []audit.Violation `json:"violations"`
	Instance   json.RawMessage   `json:"instance"`
	Plan       *faults.Plan      `json:"plan,omitempty"`

	inst *core.Instance // decoded lazily; populated eagerly by NewRepro
}

// NewRepro packages a shrunk failing configuration.
func NewRepro(p Params, inst *core.Instance, plan *faults.Plan, violations []audit.Violation) (*Repro, error) {
	var buf bytes.Buffer
	if err := inst.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("chaos: serializing repro instance: %w", err)
	}
	return &Repro{
		Params:     p,
		Violations: violations,
		Instance:   json.RawMessage(buf.Bytes()),
		Plan:       plan,
		inst:       inst,
	}, nil
}

// Inst decodes (and caches) the repro's instance.
func (r *Repro) Inst() (*core.Instance, error) {
	if r.inst != nil {
		return r.inst, nil
	}
	inst, err := core.ReadInstanceJSON(bytes.NewReader(r.Instance))
	if err != nil {
		return nil, fmt.Errorf("chaos: decoding repro instance: %w", err)
	}
	r.inst = inst
	return inst, nil
}

// N returns the repro's task count (0 if the instance cannot be decoded).
func (r *Repro) N() int {
	inst, err := r.Inst()
	if err != nil {
		return 0
	}
	return inst.N()
}

// WriteJSON serializes the repro. The only floats a repro carries are the
// sampled Params rates and the fault plan's instants — engine times (with
// their deliberate NaN sentinels) never appear here — so NaN-safety at this
// boundary means refusing a non-finite value up front with the field named,
// instead of encoding/json aborting a half-written stream with an opaque
// "unsupported value: NaN".
func (r *Repro) WriteJSON(w io.Writer) error {
	type field struct {
		name string
		v    float64
	}
	fields := []field{{"load", r.Params.Load}, {"mtbf", r.Params.MTBF}, {"mttr", r.Params.MTTR}}
	if rp := r.Params.Resilience; rp != nil {
		fields = append(fields,
			field{"retryBudget", rp.RetryBudget}, field{"budgetBurst", rp.BudgetBurst},
			field{"failureThreshold", rp.FailureThreshold}, field{"cooldown", rp.Cooldown},
			field{"slowFactor", rp.SlowFactor})
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("chaos: repro params: non-finite %s %v", f.name, f.v)
		}
	}
	if r.Plan != nil {
		if err := r.Plan.Validate(); err != nil {
			return fmt.Errorf("chaos: repro plan: %w", err)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadRepro deserializes a repro written by WriteJSON and validates that
// its instance and plan decode.
func ReadRepro(rd io.Reader) (*Repro, error) {
	var r Repro
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("chaos: decoding repro: %w", err)
	}
	if _, err := r.Inst(); err != nil {
		return nil, err
	}
	if r.Plan != nil {
		if err := r.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("chaos: repro plan: %w", err)
		}
	}
	return &r, nil
}

// Replay re-runs the repro's configuration and returns the violations it
// produces now (empty means the underlying bug no longer reproduces). A
// non-nil rec (reset first) rides the re-run and ends up holding the
// repro's raw event sequence; the engine is deterministic in the repro's
// configuration, so successive recorded replays produce identical event
// streams.
func (r *Repro) Replay(routers []RouterSpec, rec *obs.FlightRecorder) ([]audit.Violation, error) {
	if len(routers) == 0 {
		routers = DefaultRouters()
	}
	inst, err := r.Inst()
	if err != nil {
		return nil, err
	}
	spec, err := r.Params.routerSpec(routers)
	if err != nil {
		return nil, err
	}
	return Check(inst, r.Plan, spec, r.Params, rec), nil
}
