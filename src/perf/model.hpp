// The α-β-γ pricing model: counters or Table I formulas in, seconds out.
//
// A machine is three rates: α seconds per message (latency), β seconds
// per word moved (inverse bandwidth), γ seconds per flop (inverse compute
// rate).  A cost tuple (F, M, L, W) comes either from the paper's Table I
// formulas (`costs(BcdParams)`, `costs(SvmParams)`) or from a rank's
// metered counters (`costs(CommStats)`), and `price` turns it into the
// paper's critical-path running-time estimate
//
//   T = γ·F + β·W + α·L.
//
// SA trades an s-fold latency reduction for s-fold flop and bandwidth
// increases, so the sweeps below show speedup rising with s until the
// bandwidth/compute terms take over — the quantities behind Figures 3–4
// and Table V.  All quantities are per processor, along the critical
// path: F in flops, M in words of memory, L in messages, W in words moved.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dist/comm.hpp"

namespace sa::perf {

/// α-β-γ rates of one machine, all in seconds (per message/word/flop).
struct MachineParams {
  std::string name;
  double alpha = 0.0;  ///< seconds per message (latency)
  double beta = 0.0;   ///< seconds per word (inverse bandwidth)
  double gamma = 0.0;  ///< seconds per flop (inverse compute rate)

  /// One cache-coherent node: negligible latency, fast word movement.
  static MachineParams shared_memory();

  /// Cray XC30-like HPC machine (the paper's Edison testbed regime).
  static MachineParams cray_xc30();

  /// Commodity Ethernet / cloud cluster: latency-dominated collectives.
  static MachineParams ethernet_cluster();
};

/// Problem/machine-independent parameters of a BCD run (Table I symbols).
struct BcdParams {
  std::size_t iterations = 0;  ///< H
  std::size_t block_size = 1;  ///< µ
  std::size_t s = 1;           ///< recurrence-unrolling depth (1 = non-SA)
  double density = 1.0;        ///< f = nnz(A)/(m·n)
  std::size_t rows = 0;        ///< m (data points)
  std::size_t cols = 0;        ///< n (features)
  int processors = 1;          ///< P
  /// Wire slots of the fixed reduction grouping: the rank-count-invariant
  /// wire carries one Gram/dot payload per ReduceTree slot, so those terms
  /// scale by the slot count (latency does not: still one collective per
  /// round).  common::wire_slot_count gives it for a rank partition.
  std::size_t wire_slots = 1;
};

/// Parameters of a dual-CD SVM run.
struct SvmParams {
  std::size_t iterations = 0;  ///< H
  std::size_t s = 1;           ///< unrolling depth (1 = non-SA)
  double density = 1.0;        ///< f
  std::size_t rows = 0;        ///< m (data points)
  std::size_t cols = 0;        ///< n (features)
  int processors = 1;          ///< P
  /// Wire slots of the fixed reduction grouping (see
  /// BcdParams::wire_slots) — scales the Gram/dot payload terms.
  std::size_t wire_slots = 1;
};

/// The four Table I cost terms.
struct Costs {
  double flops = 0.0;      ///< F
  double memory = 0.0;     ///< M (words per processor)
  double latency = 0.0;    ///< L (messages)
  double bandwidth = 0.0;  ///< W (words)
};

/// Table I: accBCD at s = 1, SA-accBCD for s > 1.
///   F = O(H·µ²·s·f·m/P + H·µ³),  M = O(f·m·n/P + m/P + µ²s² + n),
///   L = O((H/s)·log P),          W = O(H·s·µ²·log P).
/// Throws sa::PreconditionError unless s >= 1 and processors >= 1.
Costs costs(const BcdParams& p);

/// Dual-CD SVM.  At s = 1, Algorithm 3: one allreduce of O(1) words and
/// O(f·n/P) flops for the sampled row per iteration.  For s > 1,
/// Algorithm 4: every s iterations one allreduce of O(s²) words and
/// O(s²·f·n/P) flops for the s×s Gram.  Same preconditions as above.
Costs costs(const SvmParams& p);

/// The costs a rank's metered counters record: F = flops +
/// replicated_flops (both sit on the critical path), W = words,
/// L = messages.  Memory is not metered and stays 0.
Costs costs(const dist::CommStats& stats);

/// Counters metered on a `measured_p`-rank run, rescaled to what the same
/// run would record on `target_p` ranks.
///
/// Every counter is per rank along the critical path, so each term
/// follows its own P-dependence:
///   * data-parallel `flops` scale by measured_p / target_p — each rank
///     holds a 1/P share of the rows (or columns);
///   * `replicated_flops` (eigensolves, the SA inner recurrences) are
///     repeated by every rank and stay fixed;
///   * `messages` and `words` scale by ceil(log2 target_p) /
///     ceil(log2 measured_p): a binomial-tree collective costs
///     dist::collective_rounds(P) latency rounds and ships its payload
///     once per round, while the algorithm fixes the number of
///     collectives (one per round) and the payload is kept as metered.
/// Pricing the result is therefore the paper's Table I critical-path time
/// at target_p, with the constants of the real implementation rather than
/// the asymptotic formulas.  Each scaled counter is truncated to an
/// integer, like a metered one.  Rescaling to measured_p itself returns
/// the counters unchanged (a one-rank run meters no messages or words).
dist::CommStats rescale(const dist::CommStats& measured, int measured_p,
                        int target_p);

/// Seconds attributed to each α-β-γ term.
struct CostBreakdown {
  double compute_seconds = 0.0;    ///< γ·F
  double bandwidth_seconds = 0.0;  ///< β·W
  double latency_seconds = 0.0;    ///< α·L

  double communication_seconds() const {
    return bandwidth_seconds + latency_seconds;
  }
  double total_seconds() const {
    return compute_seconds + communication_seconds();
  }
};

/// Prices a cost tuple on a machine: the one place α, β and γ apply.
CostBreakdown price(const Costs& c, const MachineParams& machine);

/// Predicted speedup of SA over non-SA at unrolling depth s, broken into
/// the paper's Figure 4(e–h) components.
struct SpeedupBreakdown {
  std::size_t s = 1;
  double total = 1.0;          ///< T_nonSA / T_SA
  double communication = 1.0;  ///< (α·L + β·W) ratio
  double computation = 1.0;    ///< (γ·F) ratio
};

/// Sweeps s over `s_values` against the s = 1 run of `base` (Figure 4 e–h
/// for BcdParams, the Table V exploration for SvmParams).
template <class Params>
std::vector<SpeedupBreakdown> speedup_sweep(
    const Params& base, const std::vector<std::size_t>& s_values,
    const MachineParams& machine);

/// The s among `candidates` minimizing the modelled time of `base` run at
/// that s.  Throws sa::PreconditionError when `candidates` is empty.
template <class Params>
std::size_t best_s(const Params& base,
                   const std::vector<std::size_t>& candidates,
                   const MachineParams& machine);

/// One point of a strong-scaling series (Figure 4 a–d).
struct ScalingPoint {
  int processors = 1;
  double seconds_non_sa = 0.0;
  double seconds_sa = 0.0;  ///< at the best s for this P
  std::size_t best_s = 1;
};

/// Strong-scaling series: for each P, prices non-SA and the best-s SA run.
std::vector<ScalingPoint> bcd_strong_scaling(
    const BcdParams& base, const std::vector<int>& processor_counts,
    const std::vector<std::size_t>& s_candidates,
    const MachineParams& machine);

}  // namespace sa::perf
