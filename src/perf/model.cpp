#include "perf/model.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace sa::perf {

// Rates are order-of-magnitude representatives of each regime, not
// measurements: ~10 Gflop/s per rank everywhere (γ = 1e-10); latency
// spans 20 ns (in-node barrier) → 2 µs (HPC interconnect) → 50 µs
// (Ethernet + software stack); per-word costs follow the same ladder
// for 8-byte words.

MachineParams MachineParams::shared_memory() {
  return {"shared-memory", 2e-8, 4e-10, 1e-10};
}

MachineParams MachineParams::cray_xc30() {
  return {"cray-xc30", 2e-6, 8e-10, 1e-10};
}

MachineParams MachineParams::ethernet_cluster() {
  return {"ethernet", 5e-5, 8e-9, 1e-10};
}

namespace {

/// ceil(log2 P): the latency rounds of one tree collective.
double tree_depth(int processors) {
  SA_CHECK(processors >= 1, "costs: processors must be >= 1");
  return static_cast<double>(dist::collective_rounds(processors));
}

template <class Params>
Params at_s(Params p, std::size_t s) {
  p.s = s;
  return p;
}

}  // namespace

Costs costs(const BcdParams& p) {
  SA_CHECK(p.s >= 1, "costs: s must be >= 1");
  const double h = static_cast<double>(p.iterations);
  const double mu = static_cast<double>(p.block_size);
  const double s = static_cast<double>(p.s);
  const double f = p.density;
  const double m = static_cast<double>(p.rows);
  const double n = static_cast<double>(p.cols);
  const double pr = static_cast<double>(p.processors);
  const double logp = tree_depth(p.processors);
  const double g = static_cast<double>(p.wire_slots);

  Costs c;
  c.flops = h * mu * mu * s * f * m / pr + h * mu * mu * mu;
  c.memory = f * m * n / pr + m / pr + mu * mu * s * s + n;
  // H/s rounds, each ONE message carrying the s²µ² fused payload once per
  // reduction-tree slot.
  c.latency = (h / s) * logp;
  c.bandwidth = h * s * mu * mu * g * logp;
  return c;
}

Costs costs(const SvmParams& p) {
  SA_CHECK(p.s >= 1, "costs: s must be >= 1");
  const double h = static_cast<double>(p.iterations);
  const double s = static_cast<double>(p.s);
  const double f = p.density;
  const double m = static_cast<double>(p.rows);
  const double n = static_cast<double>(p.cols);
  const double pr = static_cast<double>(p.processors);
  const double logp = tree_depth(p.processors);
  const double g = static_cast<double>(p.wire_slots);

  Costs c;
  c.flops = h * s * f * n / pr;  // s×s Gram every s iterations
  c.memory = f * m * n / pr + n / pr + m;
  c.latency = (h / s) * logp;
  if (p.s == 1) {
    // Algorithm 3: [A_i·A_iᵀ | A_i·x] every iteration, once per slot.
    c.bandwidth = h * (2.0 * g) * logp;
  } else {
    // Algorithm 4: the s×s Gram buffer; s² words every s iterations is
    // H·s overall, once per slot.
    c.memory += s * s;
    c.bandwidth = h * s * g * logp;
  }
  return c;
}

Costs costs(const dist::CommStats& stats) {
  Costs c;
  c.flops = static_cast<double>(stats.flops + stats.replicated_flops);
  c.latency = static_cast<double>(stats.messages);
  c.bandwidth = static_cast<double>(stats.words);
  return c;
}

dist::CommStats rescale(const dist::CommStats& measured, int measured_p,
                        int target_p) {
  dist::CommStats out = measured;
  const double flop_scale =
      static_cast<double>(measured_p) / static_cast<double>(target_p);
  const double round_scale =
      static_cast<double>(dist::collective_rounds(target_p)) /
      std::max(1.0, static_cast<double>(dist::collective_rounds(measured_p)));
  out.flops = static_cast<std::size_t>(
      static_cast<double>(measured.flops) * flop_scale);
  out.messages = static_cast<std::size_t>(
      static_cast<double>(measured.messages) * round_scale);
  out.words = static_cast<std::size_t>(
      static_cast<double>(measured.words) * round_scale);
  return out;
}

CostBreakdown price(const Costs& c, const MachineParams& machine) {
  CostBreakdown b;
  b.compute_seconds = machine.gamma * c.flops;
  b.bandwidth_seconds = machine.beta * c.bandwidth;
  b.latency_seconds = machine.alpha * c.latency;
  return b;
}

template <class Params>
std::vector<SpeedupBreakdown> speedup_sweep(
    const Params& base, const std::vector<std::size_t>& s_values,
    const MachineParams& machine) {
  const CostBreakdown ref = price(costs(at_s(base, 1)), machine);
  std::vector<SpeedupBreakdown> out;
  out.reserve(s_values.size());
  for (std::size_t s : s_values) {
    const CostBreakdown sa = price(costs(at_s(base, s)), machine);
    SpeedupBreakdown b;
    b.s = s;
    b.total = sa.total_seconds() > 0.0
                  ? ref.total_seconds() / sa.total_seconds()
                  : 1.0;
    b.communication = sa.communication_seconds() > 0.0
                          ? ref.communication_seconds() /
                                sa.communication_seconds()
                          : 1.0;
    b.computation = sa.compute_seconds > 0.0
                        ? ref.compute_seconds / sa.compute_seconds
                        : 1.0;
    out.push_back(b);
  }
  return out;
}

template <class Params>
std::size_t best_s(const Params& base,
                   const std::vector<std::size_t>& candidates,
                   const MachineParams& machine) {
  SA_CHECK(!candidates.empty(), "best_s: no candidates");
  std::size_t best = candidates.front();
  double best_time = std::numeric_limits<double>::infinity();
  for (std::size_t s : candidates) {
    const double t = price(costs(at_s(base, s)), machine).total_seconds();
    if (t < best_time) {
      best_time = t;
      best = s;
    }
  }
  return best;
}

template std::vector<SpeedupBreakdown> speedup_sweep(
    const BcdParams&, const std::vector<std::size_t>&, const MachineParams&);
template std::vector<SpeedupBreakdown> speedup_sweep(
    const SvmParams&, const std::vector<std::size_t>&, const MachineParams&);
template std::size_t best_s(const BcdParams&, const std::vector<std::size_t>&,
                            const MachineParams&);
template std::size_t best_s(const SvmParams&, const std::vector<std::size_t>&,
                            const MachineParams&);

std::vector<ScalingPoint> bcd_strong_scaling(
    const BcdParams& base, const std::vector<int>& processor_counts,
    const std::vector<std::size_t>& s_candidates,
    const MachineParams& machine) {
  std::vector<ScalingPoint> out;
  out.reserve(processor_counts.size());
  for (int p : processor_counts) {
    BcdParams params = base;
    params.processors = p;
    ScalingPoint point;
    point.processors = p;
    point.seconds_non_sa =
        price(costs(at_s(params, 1)), machine).total_seconds();
    point.best_s = best_s(params, s_candidates, machine);
    point.seconds_sa =
        price(costs(at_s(params, point.best_s)), machine).total_seconds();
    out.push_back(point);
  }
  return out;
}

}  // namespace sa::perf
