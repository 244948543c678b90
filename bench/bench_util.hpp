// Helpers for bench_figures, the table/figure reproduction driver.
//
// Every figure prints a self-describing report: which paper artifact it
// regenerates, the workload (twin) it ran, and the measured/modelled
// series.  Times on the paper's processor counts are obtained by metering
// a real P = 2 thread-team execution and rescaling the counters to the
// target P (tree collectives scale with log2 P; data-parallel flops scale
// with 1/P), then pricing with the Cray XC30-like machine model — see
// DESIGN.md §2 for why this reproduces the paper's critical-path quantity.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>

#include "dist/comm.hpp"
#include "dist/cost_model.hpp"

namespace sa::bench {

/// Number of latency rounds of a tree collective on p ranks.
inline double log2_rounds(int p) {
  double rounds = 0.0;
  int span = 1;
  while (span < p) {
    span *= 2;
    rounds += 1.0;
  }
  return rounds;
}

/// Rescales counters metered on a `measured_p`-rank run to `target_p`
/// ranks: data-parallel flops shrink ∝ 1/P, replicated flops stay fixed
/// (every rank repeats them), messages and words follow the log2(P) depth
/// of tree collectives.
inline dist::CommStats scale_stats(const dist::CommStats& measured,
                                   int measured_p, int target_p) {
  dist::CommStats out = measured;
  const double flop_scale =
      static_cast<double>(measured_p) / static_cast<double>(target_p);
  const double round_scale =
      log2_rounds(target_p) / std::max(1.0, log2_rounds(measured_p));
  out.flops = static_cast<std::size_t>(
      static_cast<double>(measured.flops) * flop_scale);
  out.messages = static_cast<std::size_t>(
      static_cast<double>(measured.messages) * round_scale);
  out.words = static_cast<std::size_t>(
      static_cast<double>(measured.words) * round_scale);
  return out;
}

/// Prices counters (optionally rescaled) on the default paper machine.
/// `flop_multiplier` scales the compute term back up when the counters
/// were metered on a shrunk dataset twin (multiplier = m_paper / m_twin),
/// so the F term carries its full-scale weight against W and L.
inline double modelled_seconds(const dist::CommStats& stats, int measured_p,
                               int target_p, double flop_multiplier = 1.0,
                               const dist::MachineParams& machine =
                                   dist::MachineParams::cray_xc30()) {
  dist::CommStats scaled = scale_stats(stats, measured_p, target_p);
  scaled.flops = static_cast<std::size_t>(
      static_cast<double>(scaled.flops) * flop_multiplier);
  return dist::price(scaled, machine).total_seconds();
}

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
