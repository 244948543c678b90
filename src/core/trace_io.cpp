#include "core/trace_io.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace sa::core {

void write_trace_csv(std::ostream& out, const Trace& trace) {
  out << "iteration,objective,flops,words,messages,wall_seconds\n";
  for (const TracePoint& p : trace.points) {
    out << p.iteration << ',' << p.objective << ',' << p.stats.flops << ','
        << p.stats.words << ',' << p.stats.messages << ',' << p.wall_seconds
        << '\n';
  }
}

void write_trace_csv(std::ostream& out, const Trace& trace,
                     const perf::MachineParams& machine) {
  out << "iteration,objective,flops,words,messages,wall_seconds,"
         "modelled_seconds\n";
  for (const TracePoint& p : trace.points) {
    out << p.iteration << ',' << p.objective << ',' << p.stats.flops << ','
        << p.stats.words << ',' << p.stats.messages << ',' << p.wall_seconds
        << ','
        << perf::price(perf::costs(p.stats), machine).total_seconds()
        << '\n';
  }
}

void write_trace_csv_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  SA_CHECK(out.good(), "write_trace_csv_file: cannot open " + path);
  write_trace_csv(out, trace);
}

void write_trace_csv_file(const std::string& path, const Trace& trace,
                          const perf::MachineParams& machine) {
  std::ofstream out(path);
  SA_CHECK(out.good(), "write_trace_csv_file: cannot open " + path);
  write_trace_csv(out, trace, machine);
}

std::string summarize_trace(const Trace& trace) {
  std::ostringstream os;
  os << "iterations=" << trace.iterations_run
     << " final_objective=" << trace.final_objective()
     << " flops=" << trace.final_stats.flops
     << " words=" << trace.final_stats.words
     << " messages=" << trace.final_stats.messages
     << " collectives=" << trace.final_stats.collectives
     << " wall_seconds=" << trace.total_wall_seconds;
  return os.str();
}

}  // namespace sa::core
