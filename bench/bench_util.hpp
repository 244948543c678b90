// Helpers for bench_figures, the table/figure reproduction driver.
//
// Every figure prints a self-describing report: which paper artifact it
// regenerates, the workload (twin) it ran, and the measured/modelled
// series.  Pricing and counter rescaling live in perf/model.hpp.
#pragma once

#include <cstdio>
#include <string>

namespace sa::bench {

/// Report header shared by every figure.
inline void print_header(const std::string& artifact,
                         const std::string& description) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("==============================================================="
              "=================\n");
}

}  // namespace sa::bench
