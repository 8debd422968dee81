// Package obs is the observability layer of the cogmimod stack: a
// stdlib-only metrics registry, structured logging helpers, a
// distributed tracing span tree with a bounded in-process recorder, and
// a progress sink — shared by the service, the simulation kernels, the
// cluster coordinator/workers and the CLIs.
//
// # Metrics
//
// A Registry holds counters, gauges and fixed-bucket histograms,
// optionally split by a single label, and renders them in the
// Prometheus text exposition format (one sample per line, preceded by
// # HELP and # TYPE headers). All constructors have get-or-create
// semantics — calling Counter twice with the same name returns the same
// counter — so packages can declare their metrics in vars without
// coordinating registration order. InfoGauge covers the multi-label
// "info metric" idiom (build_info{version=...,go_version=...} 1).
// Default holds the process-wide families (histograms, tenant-labelled
// series, Monte-Carlo, cluster and campaign counters). cmd/cogmimod's
// GET /metrics/prom writes it, then the service's per-instance
// families rendered into a throwaway Registry from one snapshot.
//
// # Logging
//
// Loggers ride on context.Context: WithLogger attaches a *slog.Logger,
// Logger retrieves it (falling back to slog.Default), and WithTraceID /
// TraceID carry a request- or job-scoped trace identifier that the HTTP
// layer generates (or accepts from an X-Trace-Id request header) and
// echoes back in the X-Trace-Id response header. A job inherits the
// trace id of the request that submitted it, so one id follows a
// computation from HTTP arrival through queueing to driver completion.
//
// # Spans and the trace tree
//
// StartSpan(ctx, name) begins a timed stage and returns a context
// carrying the new span; Span.End records the duration into the
// obs_span_duration_seconds{span=name} histogram and emits a debug log
// line. That much always happens and is all that happens by default —
// with no recorder attached a span is a name, a timestamp and one
// histogram observation, and the returned context is the input
// unchanged.
//
// Attach a TraceRecorder (WithRecorder) and spans become structural: a
// 128-bit trace id, a 64-bit span id, a parent link resolved from the
// active span in ctx (or a WithSpanParent link across process and
// queue boundaries, or the ctx trace id), string attributes (SetAttr),
// and point-in-time events (Event — "retry", "reassigned",
// "worker_dead", ...). End then also records a SpanData into the
// recorder. RecordSpan is the retroactive form for intervals whose
// start predates the observing code (queue wait). Span names become histogram label values —
// keep them to the small fixed vocabulary already in use:
// http.request, job.run, queue.wait, driver.run, cache.lookup,
// cluster.run, cluster.shard, shard.execute, mc.chunk, mc.fold,
// cogsim.run.
//
// # The recorder and cross-node merge
//
// TraceRecorder is a bounded map of trace id → finished spans: oldest
// unpinned trace evicted when the trace bound is hit, per-trace span
// counts capped (overflow is counted, not stored), Pin protecting a
// trace from eviction (slow-job auto-capture pins). Workers run a
// local recorder per shard and ship the finished spans back inside
// cluster.ShardResult; the coordinator Imports them into its own
// recorder, so GET /v1/traces/{id} serves one merged timeline covering
// HTTP arrival → queue wait → scheduling → per-shard execution on each
// worker → fold. WriteChromeTrace renders a merged Trace in the Chrome
// trace_event JSON format, viewable at chrome://tracing or
// ui.perfetto.dev, with one thread lane per worker node.
//
// # Progress
//
// A Progress sink receives AddTotal (expected work) and Add (completed
// work) calls; Tracker is the standard implementation with an atomic
// snapshot of done/total/elapsed. WithProgress / ProgressFrom propagate
// the sink through context — ProgressFrom returns a no-op sink when
// none is attached, so instrumented code never branches. sim.MonteCarlo
// reports completed trials per chunk, experiment drivers report sweep
// points, the service exposes the snapshot on GET /v1/jobs/{id}, and
// StartProgressPrinter renders a live progress line on a terminal.
package obs
