// Trace serialization: CSV export and cost-model pricing of solver traces.
//
// Benchmarks and downstream analysis scripts consume solver histories as
// CSV; this header renders a Trace with its metered counters and, when a
// machine model is supplied, the modelled α-β-γ time per trace point —
// the exact data behind the paper's Figures 3–5.
#pragma once

#include <iosfwd>
#include <string>

#include "core/trace.hpp"
#include "perf/model.hpp"

namespace sa::core {

/// Writes "iteration,objective,flops,words,messages,wall_seconds" rows.
void write_trace_csv(std::ostream& out, const Trace& trace);

/// As above plus a "modelled_seconds" column priced on `machine`.
void write_trace_csv(std::ostream& out, const Trace& trace,
                     const perf::MachineParams& machine);

/// Convenience file variants; throw sa::PreconditionError on I/O failure.
void write_trace_csv_file(const std::string& path, const Trace& trace);
void write_trace_csv_file(const std::string& path, const Trace& trace,
                          const perf::MachineParams& machine);

/// One-line human-readable summary: iterations, final objective, counters.
std::string summarize_trace(const Trace& trace);

}  // namespace sa::core
