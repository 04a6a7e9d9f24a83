package flowsched

import (
	"io"

	"flowsched/internal/obs"
	"flowsched/internal/sim"
	"flowsched/internal/trace"
	"flowsched/internal/viz"
)

// Observability: event traces derived from schedules.

// TraceEvent is one arrival/start/completion record of a schedule's trace.
type TraceEvent = trace.Event

// Trace kinds.
const (
	TraceCompletion = trace.Completion
	TraceArrival    = trace.Arrival
	TraceStart      = trace.Start
)

// Trace derives the time-ordered event trace of a schedule (arrivals,
// starts, completions).
func Trace(s *Schedule) []TraceEvent { return trace.FromSchedule(s) }

// WriteTrace renders a trace one event per line.
func WriteTrace(w io.Writer, events []TraceEvent) { trace.Write(w, events) }

// PeakBacklog returns the maximum number of released-but-unfinished tasks
// over a trace and when it occurs.
func PeakBacklog(events []TraceEvent) (int, Time) { return trace.PeakBacklog(events) }

// WriteMachineTimeline renders machine j's busy periods from a schedule.
func WriteMachineTimeline(w io.Writer, s *Schedule, j int) { trace.MachineTimeline(w, s, j) }

// WriteGanttSVG renders a schedule as a standalone SVG Gantt chart
// (pxPerUnit ≤ 0 auto-fits to ~900px).
func WriteGanttSVG(w io.Writer, s *Schedule, pxPerUnit float64) error {
	return viz.GanttSVG(w, s, pxPerUnit)
}

// WriteHeatmapSVG renders a labeled matrix as an SVG heat map (lo ≥ hi
// auto-scales to the data range).
func WriteHeatmapSVG(w io.Writer, rows, cols []string, values [][]float64, lo, hi float64, title string) error {
	return viz.HeatmapSVG(w, rows, cols, values, lo, hi, title)
}

// In-flight observability (internal/obs): sinks that watch a simulation
// while it runs, instead of post-processing the finished schedule.
type (
	// Probe is what a simulation run reports to: build one from sinks with
	// MultiProbe. See internal/obs.Probe for the event-time contract.
	Probe = obs.Probe
	// ProbeSink receives a run's events, one ProbeEvent per engine event;
	// every observer below is one. Implement it for a custom observer.
	ProbeSink = obs.Sink
	// ProbeEvent is one engine event: its kind (Kind.String() is the wire
	// name) and the fields internal/obs.Event's table lists per kind.
	ProbeEvent = obs.Event
	// Histogram is a streaming log-bucketed distribution with bounded
	// memory and quantile queries (max relative error √growth − 1).
	Histogram = obs.Histogram
	// HistogramProbe streams completed requests' flow times and stretches
	// into two Histograms.
	HistogramProbe = obs.HistogramProbe
	// TimeSeries records per-server queue lengths, the backlog, the
	// in-flight max-flow watermark and utilization at a fixed interval.
	TimeSeries = obs.Sampler
	// TimeSeriesSample is one instant of a TimeSeries.
	TimeSeriesSample = obs.Sample
	// JSONLSink streams the run's events as newline-delimited JSON.
	JSONLSink = obs.JSONLSink
	// ProbeCounters tallies the run's event totals with Prometheus-style
	// text exposition.
	ProbeCounters = obs.Counters
)

// NewHistogram returns a streaming histogram with the default bucket scheme
// (eight buckets per doubling).
func NewHistogram() *Histogram { return obs.NewHistogram() }

// NewHistogramProbe returns a probe streaming flow times and stretches into
// fresh default histograms.
func NewHistogramProbe() *HistogramProbe { return obs.NewHistogramProbe() }

// NewTimeSeries returns a sampler for m servers at interval dt (dt must be
// positive).
func NewTimeSeries(m int, dt Time) (*TimeSeries, error) { return obs.NewSampler(m, dt) }

// NewJSONLSink returns a sink writing one JSON event per line to w
// (buffered; flushed by the run's done event, or call Flush).
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// ReplayJSONL reconstructs the trace of a run from its JSONL event stream;
// for a fault-free run it equals Trace of the run's schedule exactly.
func ReplayJSONL(r io.Reader) ([]TraceEvent, error) { return obs.ReplayTrace(r) }

// MultiProbe returns the probe that feeds a run's events to the given sinks
// in order (nil entries are skipped; all-nil yields nil, which simulates
// unobserved).
func MultiProbe(sinks ...ProbeSink) Probe { return obs.Multi(sinks...) }

// Observe is Simulate with a probe attached. A nil probe is exactly
// Simulate: the hooks are nil-guarded, so the unobserved hot path stays
// allocation-free.
func Observe(inst *Instance, router Router, probe Probe) (*Schedule, *SimMetrics, error) {
	return sim.RunProbed(inst, router, probe)
}

// WriteTimeSeriesSVG renders a sampled run as an SVG chart: backlog area,
// per-server queue lines, max-flow watermark.
func WriteTimeSeriesSVG(w io.Writer, samples []TimeSeriesSample, title string) error {
	return viz.TimeSeriesSVG(w, samples, title)
}

// Causal span tracing (internal/obs.Tracer): per-task span trees assembled
// from the event stream, bounded-memory tail retention, and a flight recorder
// keeping the last raw events of a run.
type (
	// Tracer assembles per-task causal traces (queued → attempts → terminal
	// state) from the event stream; attach it through MultiProbe.
	Tracer = obs.Tracer
	// TaskTrace is one task's causal history: release, attempts, terminal
	// state and flow.
	TaskTrace = obs.TaskTrace
	// AttemptSpan is one dispatch of a task onto a server: its forecast
	// service interval and how the attempt ended.
	AttemptSpan = obs.AttemptSpan
	// TraceRetention bounds a Tracer's memory; build with TraceKeepAll or
	// TraceKeepWorst.
	TraceRetention = obs.Retention
	// FlightRecorder keeps the last N raw engine events in a fixed ring —
	// the always-on crash recorder behind chaos repro dumps and audit
	// evidence.
	FlightRecorder = obs.FlightRecorder
	// FlightEvent is one raw event held by a FlightRecorder.
	FlightEvent = obs.FlightEvent
)

// TraceKeepAll retains every task's trace (memory grows with n).
func TraceKeepAll() TraceRetention { return obs.KeepAll() }

// TraceKeepWorst retains only the k tasks with the largest flow times
// (unfinished tasks rank worst), in O(k) memory.
func TraceKeepWorst(k int) TraceRetention { return obs.KeepWorst(k) }

// NewTracer returns a span-tracing sink with the given retention.
func NewTracer(r TraceRetention) *Tracer { return obs.NewTracer(r) }

// NewFlightRecorder returns a flight recorder keeping the last size events
// (size ≤ 0 means the default ring of 4096).
func NewFlightRecorder(size int) *FlightRecorder { return obs.NewFlightRecorder(size) }

// WriteTraceTimelineSVG renders task traces as a span Gantt, one row per
// trace in the given order — pass Tracer.Worst(k) for a tail postmortem.
func WriteTraceTimelineSVG(w io.Writer, traces []*TaskTrace, makespan Time, title string) error {
	return viz.TraceTimelineSVG(w, traces, makespan, title)
}
