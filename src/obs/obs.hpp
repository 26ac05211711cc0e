// One observability domain: a metrics registry plus a trace sink.
//
// A Testbed (or a tool) owns an Obs and hands it to every component it
// wires (`set_observability(obs)`); components resolve their counters once
// at registration and emit trace events through the TLC_TRACE_EVENT
// macros. A component's registry counters are its only tally. One never
// attached — a unit test's bare component — counts nothing and pays one
// pointer compare per counting site.
#pragma once

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace tlc::obs {

struct Obs {
  MetricsRegistry metrics;
  TraceSink trace;
  Tracer spans{&trace};
};

}  // namespace tlc::obs
