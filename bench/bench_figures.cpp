// The paper's figures and tables from ONE driver.
//
//   bench_figures [convergence|runtime|scaling|overlap|table1|table3|
//                  table5|ablation|all] [--smoke] [--json out.json]
//
// Every solve goes through the Solver facade (SolverSpec); the figure
// series iterate core::registered_algorithms() — no per-figure solver
// plumbing:
//
//   convergence  objective / duality-gap vs iteration for every registered
//                id (paper Figures 2 and 5), plus the SA-vs-classical
//                agreement check per family;
//   runtime      metered 2-rank runs rescaled to the paper's processor
//                counts and priced on the Cray XC30-like machine (paper
//                Figure 3), with the SA speedup over the classical id;
//   scaling      Table I cost-model strong scaling and speedup-vs-s
//                breakdown (paper Figure 4);
//   overlap      measured wall time and per-phase seconds for the
//                double-buffered round pipeline vs the unpipelined loop,
//                every id on 4 thread-backed ranks, with the fraction of
//                the reduce-wait the overlap hid;
//   table1       Table I leading-order F/M/L/W costs, swept over s;
//   table3       Table III final relative objective error of SA vs
//                classical lasso at s = 1000 (machine precision expected);
//   table5       Table V SA-SVM-L1 modelled speedups at the paper's
//                (dataset, P) points, from metered 2-rank runs;
//   ablation     drift vs s, modelled best s vs machine latency, and the
//                µ-vs-s speedup interaction.
//
// --json PATH additionally writes every series the selected figures
// produced as one machine-readable JSON document (plotting scripts and CI
// trend tracking consume this; the stdout tables stay the human surface).
// --smoke shrinks the workloads to seconds (synthetic twins, small H) —
// the mode CI runs.  The full mode runs ONE representative twin per
// partition axis (news20-like for the regression families, w1a-like for
// SVM) at one target P; for the full dataset × P sweeps of the paper's
// figure panels, edit Config / dataset_for — every series goes through
// the same registry loop.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/objective.hpp"
#include "core/registry.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "la/vector_ops.hpp"
#include "perf/model.hpp"

namespace {

using sa::core::SolveResult;
using sa::core::SolverSpec;

// The metered runs (runtime, table5) execute on this many thread-backed
// ranks; their counters are rescaled to the paper's processor counts.
constexpr int kMeasuredRanks = 2;

/// Modelled seconds of counters metered on kMeasuredRanks ranks, rescaled
/// to `target_p` ranks and priced on the Cray XC30-like machine.
double paper_scale_seconds(const sa::dist::CommStats& metered, int target_p) {
  return sa::perf::price(
             sa::perf::costs(
                 sa::perf::rescale(metered, kMeasuredRanks, target_p)),
             sa::perf::MachineParams::cray_xc30())
      .total_seconds();
}

struct Config {
  bool smoke = false;
  std::size_t h = 400;            // inner iterations
  std::size_t trace_every = 100;  // objective cadence
  std::size_t s = 32;             // unrolling depth for sa-* ids
  int target_p = 768;             // paper-scale processor count (runtime)
};

// --json accumulator: each figure runner contributes one named JSON value;
// main() assembles and writes the document.  Hand-rolled on purpose — the
// schema is flat (objects, arrays, numbers, strings) and the container has
// no JSON dependency.
struct JsonSink {
  bool enabled = false;
  std::vector<std::pair<std::string, std::string>> figures;
  void add(const std::string& name, std::string value) {
    if (enabled) figures.emplace_back(name, std::move(value));
  }
};

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) { return "\"" + s + "\""; }

/// Joins already-serialized JSON values into an array.
std::string jarr(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ",";
    out += items[i];
  }
  return out + "]";
}

double wall_seconds_since(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

bool is_svm_id(const std::string& id) {
  return id == "svm" || id == "sa-svm";
}
bool is_group_id(const std::string& id) {
  return id == "group-lasso" || id == "sa-group-lasso";
}

/// The dataset each algorithm family runs on: a news20-like sparse twin
/// for the regression families, a w1a-like twin for the SVM family
/// (synthetic stand-ins in smoke mode).
const sa::data::Dataset& dataset_for(const std::string& id,
                                     const Config& cfg) {
  static sa::data::Dataset regression, classification;
  if (regression.num_points() == 0) {
    if (cfg.smoke) {
      sa::data::RegressionConfig rc;
      rc.num_points = 120;
      rc.num_features = 60;
      rc.density = 0.3;
      rc.support_size = 8;
      rc.seed = 7;
      regression = sa::data::make_regression(rc).dataset;
      sa::data::ClassificationConfig cc;
      cc.num_points = 100;
      cc.num_features = 80;
      cc.density = 0.3;
      cc.seed = 7;
      classification = sa::data::make_classification(cc);
    } else {
      regression =
          sa::data::make_paper_twin(sa::data::PaperDataset::kNews20, 60.0);
      classification = sa::data::make_paper_twin(
          sa::data::PaperDataset::kW1a, 4.0, 42,
          /*force_classification=*/true);
    }
  }
  return is_svm_id(id) ? classification : regression;
}

/// One spec per registered id, the same knobs across the classical/SA
/// variants of a family so their series are comparable.
SolverSpec spec_for(const std::string& id, const Config& cfg) {
  SolverSpec spec = SolverSpec::make(id)
                        .with_max_iterations(cfg.h)
                        .with_trace_every(cfg.trace_every)
                        .with_seed(7)
                        .with_s(cfg.s);
  if (is_svm_id(id)) {
    spec.with_lambda(1.0).with_loss(sa::core::SvmLoss::kL2);
  } else if (is_group_id(id)) {
    spec.with_lambda(0.05).with_groups(sa::core::GroupStructure::uniform(
        dataset_for(id, cfg).num_features(), 5));
  } else {
    spec.with_lambda(0.05).with_block_size(8).with_acceleration(true);
  }
  return spec;
}

/// The classical counterpart of an sa-* id ("" when `id` is classical).
std::string classical_of(const std::string& id) {
  return id.rfind("sa-", 0) == 0 ? id.substr(3) : std::string();
}

// ---------------------------------------------------------------------
// convergence — Figures 2 and 5
// ---------------------------------------------------------------------

void run_convergence(const Config& cfg, JsonSink& json) {
  sa::bench::print_header(
      "Figures 2 & 5 — convergence vs iterations, every registered id",
      "Objective (Lasso families) / duality gap (SVM family) per trace "
      "point via the Solver facade.\nExpected shape: SA series coincide "
      "with their classical counterparts.");

  std::vector<std::string> labels;
  std::vector<std::vector<std::pair<std::size_t, double>>> series;
  for (const std::string& id : sa::core::registered_algorithms()) {
    const SolveResult r = sa::core::solve(dataset_for(id, cfg),
                                          spec_for(id, cfg));
    labels.push_back(id);
    series.emplace_back();
    for (const auto& p : r.trace.points)
      series.back().emplace_back(p.iteration, p.objective);
  }

  if (json.enabled) {
    std::vector<std::string> items;
    for (std::size_t k = 0; k < labels.size(); ++k) {
      std::vector<std::string> points;
      for (const auto& [it, v] : series[k])
        points.push_back(jarr({jnum(static_cast<double>(it)), jnum(v)}));
      items.push_back("{\"id\":" + jstr(labels[k]) +
                      ",\"points\":" + jarr(points) + "}");
    }
    json.add("convergence", jarr(items));
  }

  std::printf("%12s", "iteration");
  for (const std::string& l : labels) std::printf("  %16s", l.c_str());
  std::printf("\n");
  for (std::size_t it = 0; it <= cfg.h; it += cfg.trace_every) {
    std::printf("%12zu", it);
    for (const auto& s : series) {
      bool found = false;
      double value = 0.0;
      for (const auto& [i, v] : s)
        if (i == it) {
          found = true;
          value = v;
        }
      if (found)
        std::printf("  %16.6g", value);
      else
        std::printf("  %16s", "-");
    }
    std::printf("\n");
  }

  // SA-vs-classical agreement at common iterations, per family.
  std::printf("\nmax |f_SA - f_classical| / max(1, |f_classical|):\n");
  for (std::size_t k = 0; k < labels.size(); ++k) {
    const std::string ref_id = classical_of(labels[k]);
    if (ref_id.empty()) continue;
    std::size_t ref = labels.size();
    for (std::size_t j = 0; j < labels.size(); ++j)
      if (labels[j] == ref_id) ref = j;
    if (ref == labels.size()) continue;
    double worst = 0.0;
    for (const auto& [it, got] : series[k])
      for (const auto& [rit, want] : series[ref])
        if (rit == it)
          worst = std::max(worst, std::abs(want - got) /
                                      std::max(1.0, std::abs(want)));
    std::printf("  %-16s vs %-14s : %.3e\n", labels[k].c_str(),
                ref_id.c_str(), worst);
  }
}

// ---------------------------------------------------------------------
// runtime — Figure 3
// ---------------------------------------------------------------------

void run_runtime(const Config& cfg, JsonSink& json) {
  sa::bench::print_header(
      "Figure 3 — modelled running time at paper scale, every registered "
      "id",
      "Metered 2-rank facade runs, counters rescaled to the target P and "
      "priced on the Cray XC30-like machine.\nExpected shape: sa-* ids "
      "faster than their classical counterparts.");

  struct Row {
    std::string id;
    double seconds = 0.0;
    double objective = 0.0;
    std::size_t collectives = 0;
  };
  std::vector<Row> rows;
  for (const std::string& id : sa::core::registered_algorithms()) {
    const SolveResult r = sa::core::solve_on_ranks(
        dataset_for(id, cfg), spec_for(id, cfg), kMeasuredRanks);
    rows.push_back({id,
                    paper_scale_seconds(r.trace.final_stats, cfg.target_p),
                    r.final_objective(), r.stats.collectives});
  }
  std::printf("%-16s %14s %14s %14s %12s\n", "algorithm", "modelled time",
              "final obj", "collectives", "speedup");
  std::vector<std::string> items;
  for (const Row& row : rows) {
    double speedup = 1.0;
    const std::string ref_id = classical_of(row.id);
    for (const Row& ref : rows)
      if (ref.id == ref_id) speedup = ref.seconds / row.seconds;
    std::printf("%-16s %12.4fs %14.6g %14zu %11.2fx\n", row.id.c_str(),
                row.seconds, row.objective, row.collectives, speedup);
    items.push_back(
        "{\"id\":" + jstr(row.id) +
        ",\"modelled_seconds\":" + jnum(row.seconds) +
        ",\"final_objective\":" + jnum(row.objective) +
        ",\"collectives\":" + jnum(static_cast<double>(row.collectives)) +
        ",\"speedup\":" + jnum(speedup) + "}");
  }
  json.add("runtime", jarr(items));
}

// ---------------------------------------------------------------------
// scaling — Figure 4
// ---------------------------------------------------------------------

void run_scaling(const Config& cfg, JsonSink& json) {
  sa::bench::print_header(
      "Figure 4 — cost-model strong scaling and speedup breakdown",
      "Table I formulas priced on the Cray XC30-like machine; the SVM "
      "sweep uses the matching Algorithm 3/4 costs.\nExpected shape: SA "
      "faster everywhere, gap widens with P; speedup vs s rises then "
      "falls.");

  const sa::perf::MachineParams machine =
      sa::perf::MachineParams::cray_xc30();
  const std::vector<std::size_t> s_candidates{1, 2,  4,  8,  16,
                                              32, 64, 128, 256};

  sa::perf::BcdParams bcd;
  bcd.iterations = cfg.smoke ? 200 : 1000;
  bcd.block_size = 1;
  const auto shape = sa::data::paper_shape(sa::data::PaperDataset::kNews20);
  bcd.density = shape.nnz_percent / 100.0;
  bcd.rows = shape.points;
  bcd.cols = shape.features;
  bcd.processors = 192;

  std::printf("\n--- %s strong scaling (accCD vs CA-accCD) ---\n",
              shape.name.c_str());
  std::printf("%10s %14s %14s %10s %8s\n", "P", "accCD [s]", "CA-accCD [s]",
              "speedup", "best s");
  std::vector<std::string> strong_items;
  for (const sa::perf::ScalingPoint& pt : sa::perf::bcd_strong_scaling(
           bcd, {192, 384, 768}, s_candidates, machine)) {
    std::printf("%10d %14.4f %14.4f %9.2fx %8zu\n", pt.processors,
                pt.seconds_non_sa, pt.seconds_sa,
                pt.seconds_non_sa / pt.seconds_sa, pt.best_s);
    strong_items.push_back(
        "{\"processors\":" + jnum(pt.processors) +
        ",\"seconds_non_sa\":" + jnum(pt.seconds_non_sa) +
        ",\"seconds_sa\":" + jnum(pt.seconds_sa) +
        ",\"best_s\":" + jnum(static_cast<double>(pt.best_s)) + "}");
  }
  json.add("strong_scaling", jarr(strong_items));

  bcd.processors = 768;
  std::printf("\n--- speedup breakdown @ P=%d ---\n", bcd.processors);
  std::printf("%8s %10s %16s %14s\n", "s", "total", "communication",
              "computation");
  std::vector<std::string> sweep_items;
  for (const sa::perf::SpeedupBreakdown& b :
       sa::perf::speedup_sweep(bcd, {2, 4, 8, 16, 32, 64}, machine)) {
    std::printf("%8zu %9.2fx %15.2fx %13.2fx\n", b.s, b.total,
                b.communication, b.computation);
    sweep_items.push_back(
        "{\"s\":" + jnum(static_cast<double>(b.s)) +
        ",\"total\":" + jnum(b.total) +
        ",\"communication\":" + jnum(b.communication) +
        ",\"computation\":" + jnum(b.computation) + "}");
  }
  json.add("bcd_speedup_sweep", jarr(sweep_items));

  sa::perf::SvmParams svm;
  svm.iterations = cfg.smoke ? 1000 : 10000;
  const auto svm_shape = sa::data::paper_shape(sa::data::PaperDataset::kW1a);
  svm.density = svm_shape.nnz_percent / 100.0;
  svm.rows = svm_shape.points;
  svm.cols = svm_shape.features;
  svm.processors = 256;
  std::printf("\n--- %s SVM speedup vs s @ P=%d ---\n",
              svm_shape.name.c_str(), svm.processors);
  std::printf("%8s %10s %16s %14s\n", "s", "total", "communication",
              "computation");
  std::vector<std::string> svm_items;
  for (const sa::perf::SpeedupBreakdown& b : sa::perf::speedup_sweep(
           svm, {2, 4, 8, 16, 32, 64, 128}, machine)) {
    std::printf("%8zu %9.2fx %15.2fx %13.2fx\n", b.s, b.total,
                b.communication, b.computation);
    svm_items.push_back(
        "{\"s\":" + jnum(static_cast<double>(b.s)) +
        ",\"total\":" + jnum(b.total) +
        ",\"communication\":" + jnum(b.communication) +
        ",\"computation\":" + jnum(b.computation) + "}");
  }
  json.add("svm_speedup_sweep", jarr(svm_items));
}

// ---------------------------------------------------------------------
// overlap — pipelined vs unpipelined phase timing
// ---------------------------------------------------------------------

void run_overlap(const Config& cfg, JsonSink& json) {
  sa::bench::print_header(
      "Round-pipeline overlap efficiency, every registered id",
      "Measured wall and per-phase seconds on 4 thread-backed ranks,\n"
      "pipeline on vs off (bitwise-identical math; see "
      "tests/core/test_round_pipeline.cpp).\nhidden = the reduce-wait "
      "seconds the overlap removed; efficiency = hidden / wait(off).");

  constexpr int kRanks = 4;
  struct Timing {
    double wall = 0.0;
    sa::dist::CommStats stats;
  };
  std::printf("%-16s %10s %10s %10s %10s %10s %11s\n", "algorithm",
              "wall on", "wall off", "wait on", "wait off", "hidden",
              "efficiency");
  std::vector<std::string> items;
  for (const std::string& id : sa::core::registered_algorithms()) {
    Timing timing[2];  // [0] = pipeline on, [1] = off
    for (int mode = 0; mode < 2; ++mode) {
      SolverSpec spec = spec_for(id, cfg).with_pipeline(mode == 0);
      const auto t0 = std::chrono::steady_clock::now();
      const SolveResult r =
          sa::core::solve_on_ranks(dataset_for(id, cfg), spec, kRanks);
      timing[mode] = {wall_seconds_since(t0), r.stats};
    }
    const double wait_on = timing[0].stats.wait_seconds;
    const double wait_off = timing[1].stats.wait_seconds;
    const double hidden = wait_off - wait_on;
    const double efficiency = wait_off > 0.0 ? hidden / wait_off : 0.0;
    std::printf("%-16s %9.4fs %9.4fs %9.4fs %9.4fs %9.4fs %10.1f%%\n",
                id.c_str(), timing[0].wall, timing[1].wall, wait_on,
                wait_off, hidden, 100.0 * efficiency);
    const auto phases = [&](const Timing& t) {
      return std::string("{\"wall_seconds\":") + jnum(t.wall) +
             ",\"pack_seconds\":" + jnum(t.stats.pack_seconds) +
             ",\"wait_seconds\":" + jnum(t.stats.wait_seconds) +
             ",\"apply_seconds\":" + jnum(t.stats.apply_seconds) +
             ",\"checkpoint_seconds\":" + jnum(t.stats.checkpoint_seconds) +
             "}";
    };
    items.push_back("{\"id\":" + jstr(id) +
                    ",\"ranks\":" + jnum(kRanks) +
                    ",\"pipeline_on\":" + phases(timing[0]) +
                    ",\"pipeline_off\":" + phases(timing[1]) +
                    ",\"hidden_wait_seconds\":" + jnum(hidden) +
                    ",\"overlap_efficiency\":" + jnum(efficiency) + "}");
  }
  json.add("overlap", jarr(items));
}

// ---------------------------------------------------------------------
// table1 — Table I theoretical costs
// ---------------------------------------------------------------------

std::string jcosts(const sa::perf::Costs& c) {
  return "\"flops\":" + jnum(c.flops) + ",\"memory\":" + jnum(c.memory) +
         ",\"latency\":" + jnum(c.latency) +
         ",\"bandwidth\":" + jnum(c.bandwidth);
}

/// Leading-order F/M/L/W of accBCD vs SA-accBCD on a representative
/// problem, swept over s to exhibit L_SA = L/s, W_SA = s·W and
/// F_SA ≈ s·F_gram + F_sub.  Pure formulas, so smoke mode is the same.
void run_table1(const Config& /*cfg*/, JsonSink& json) {
  sa::bench::print_header(
      "Table I — theoretical costs along the critical path",
      "F (flops), M (words/processor), L (messages), W (words moved) for "
      "accBCD vs SA-accBCD.");

  sa::perf::BcdParams p;
  p.iterations = 1000;   // H
  p.block_size = 8;      // µ
  p.density = 0.01;      // f
  p.rows = 1 << 20;      // m
  p.cols = 1 << 15;      // n
  p.processors = 1024;   // P

  std::printf("problem: H=%zu, mu=%zu, f=%.3g, m=%zu, n=%zu, P=%d\n\n",
              p.iterations, p.block_size, p.density, p.rows, p.cols,
              p.processors);

  std::vector<std::string> items;
  const sa::perf::Costs ref = sa::perf::costs(p);
  std::printf("%-14s %14s %14s %14s %14s\n", "algorithm", "F", "M", "L",
              "W");
  std::printf("%-14s %14.4g %14.4g %14.4g %14.4g\n", "accBCD", ref.flops,
              ref.memory, ref.latency, ref.bandwidth);
  items.push_back("{\"algorithm\":\"accBCD\",\"s\":1," + jcosts(ref) + "}");

  for (std::size_t s : {2, 4, 8, 16, 32, 64, 128}) {
    sa::perf::BcdParams q = p;
    q.s = s;
    const sa::perf::Costs sa = sa::perf::costs(q);
    std::printf("SA-accBCD s=%-3zu %13.4g %14.4g %14.4g %14.4g"
                "   (L/s ratio %.1f, W ratio %.1f)\n",
                s, sa.flops, sa.memory, sa.latency, sa.bandwidth,
                ref.latency / sa.latency, sa.bandwidth / ref.bandwidth);
    items.push_back("{\"algorithm\":\"SA-accBCD\",\"s\":" +
                    jnum(static_cast<double>(s)) + "," + jcosts(sa) + "}");
  }

  std::printf("\nSVM analogue (Algorithm 3 vs 4):\n");
  sa::perf::SvmParams sp;
  sp.iterations = 10000;
  sp.density = 0.05;
  sp.rows = 100000;
  sp.cols = 20000;
  sp.processors = 512;
  const sa::perf::Costs svm_ref = sa::perf::costs(sp);
  std::printf("%-14s %14.4g %14.4g %14.4g %14.4g\n", "SVM", svm_ref.flops,
              svm_ref.memory, svm_ref.latency, svm_ref.bandwidth);
  items.push_back("{\"algorithm\":\"SVM\",\"s\":1," + jcosts(svm_ref) + "}");
  for (std::size_t s : {16, 64, 256}) {
    sa::perf::SvmParams q = sp;
    q.s = s;
    const sa::perf::Costs sa = sa::perf::costs(q);
    std::printf("SA-SVM s=%-5zu %14.4g %14.4g %14.4g %14.4g\n", s, sa.flops,
                sa.memory, sa.latency, sa.bandwidth);
    items.push_back("{\"algorithm\":\"SA-SVM\",\"s\":" +
                    jnum(static_cast<double>(s)) + "," + jcosts(sa) + "}");
  }
  std::printf("\nExpected scalings hold: latency / s, bandwidth x s, "
              "Gram flops x s, memory + (s*mu)^2 buffer.\n");
  json.add("table1", jarr(items));
}

// ---------------------------------------------------------------------
// table3 — Table III numerical stability
// ---------------------------------------------------------------------

/// Final objective of a serial lasso (s == 0) or sa-lasso solve.
double lasso_final_objective(const sa::data::Dataset& d, std::size_t mu,
                             bool accelerated, std::size_t s,
                             std::size_t h) {
  SolverSpec spec = SolverSpec::make(s == 0 ? "lasso" : "sa-lasso")
                        .with_lambda(0.05)
                        .with_block_size(mu)
                        .with_acceleration(accelerated)
                        .with_max_iterations(h)
                        .with_trace_every(h)
                        .with_seed(7);
  if (s > 0) spec.with_s(s);
  return sa::core::solve(d, spec).final_objective();
}

/// |f_nonSA − f_SA| / f_nonSA of the SA methods at s = 1000 on the leu,
/// covtype and news20 twins.  The paper reports every entry at machine
/// precision.  Smoke mode shrinks the twins and H.
void run_table3(const Config& cfg, JsonSink& json) {
  sa::bench::print_header(
      "Table III — final relative objective error, SA vs non-SA (s = 1000)",
      "Paper reports every entry at machine precision (eps = 2.2e-16).");

  struct Row {
    const char* method;
    std::size_t mu;
    bool acc;
  };
  const std::vector<Row> rows = {
      {"SA-accCD", 1, true},
      {"SA-CD", 1, false},
      {"SA-accBCD (mu=8)", 8, true},
      {"SA-BCD (mu=8)", 8, false},
  };

  struct Ds {
    sa::data::PaperDataset which;
    double shrink;
    std::size_t h;
  };
  const std::vector<Ds> datasets = {
      {sa::data::PaperDataset::kLeu, 8.0, 500},
      {sa::data::PaperDataset::kCovtype, 1200.0, 400},
      {sa::data::PaperDataset::kNews20, 60.0, 500},
  };
  // Smoke mode: ten times smaller twins and H.
  const std::size_t scale = cfg.smoke ? 10 : 1;

  std::printf("%-20s", "method");
  std::vector<sa::data::Dataset> twins;
  std::vector<std::string> names;
  for (const Ds& ds : datasets) {
    twins.push_back(sa::data::make_paper_twin(
        ds.which, ds.shrink * static_cast<double>(scale)));
    names.push_back(jstr(twins.back().name));
    std::printf("  %16s", twins.back().name.c_str());
  }
  std::printf("\n");

  double worst = 0.0;
  std::vector<std::string> items;
  for (const Row& row : rows) {
    std::printf("%-20s", row.method);
    std::vector<std::string> errors;
    for (std::size_t k = 0; k < datasets.size(); ++k) {
      const std::size_t h = datasets[k].h / scale;
      const double f_ref =
          lasso_final_objective(twins[k], row.mu, row.acc, 0, h);
      const double f_sa =
          lasso_final_objective(twins[k], row.mu, row.acc, 1000, h);
      const double err = sa::core::relative_objective_error(f_ref, f_sa);
      worst = std::max(worst, err);
      errors.push_back(jnum(err));
      std::printf("  %16.4e", err);
    }
    std::printf("\n");
    items.push_back("{\"method\":" + jstr(row.method) +
                    ",\"relative_errors\":" + jarr(errors) + "}");
  }
  std::printf("\nmachine epsilon = 2.2e-16;  worst entry = %.4e  (%s)\n",
              worst,
              worst < 1e-12 ? "PASS: numerically stable"
                            : "WARN: above expected precision band");
  json.add("table3", "{\"datasets\":" + jarr(names) +
                         ",\"rows\":" + jarr(items) +
                         ",\"worst_relative_error\":" + jnum(worst) + "}");
}

// ---------------------------------------------------------------------
// table5 — Table V SA-SVM speedups
// ---------------------------------------------------------------------

/// Metered counters of an L1 svm (s == 0) or sa-svm solve on a
/// kMeasuredRanks thread team over a plain block column partition.
sa::dist::CommStats run_svm_metered(const sa::data::Dataset& d,
                                    std::size_t s, std::size_t h) {
  SolverSpec spec = SolverSpec::make(s == 0 ? "svm" : "sa-svm")
                        .with_lambda(1.0)
                        // the paper solves the harder L1 loss
                        .with_loss(sa::core::SvmLoss::kL1)
                        .with_max_iterations(h)
                        .with_seed(3);
  if (s > 0) spec.with_s(s);

  const sa::data::Partition cols =
      sa::data::Partition::block(d.num_features(), kMeasuredRanks);
  sa::dist::CommStats out;
  std::mutex lock;
  sa::dist::run_distributed(
      kMeasuredRanks, [&](sa::dist::Communicator& comm) {
        const SolveResult r =
            sa::core::make_solver(comm, d, cols, spec)->run();
        if (comm.rank() == 0) {
          std::scoped_lock guard(lock);
          out = r.trace.final_stats;
        }
      });
  return out;
}

/// SA-SVM-L1 modelled time and speedup over SVM-L1 at the paper's
/// (dataset, P) points, with an s sweep reporting the best setting.  Both
/// solvers run for real on 2 ranks (a fixed iteration budget stands in for
/// the paper's duality-gap-1e-1 budget); the metered counters are rescaled
/// to the target P and priced on the XC30-like machine.  The paper reports
/// 1.4× (rcv1), 2.1× (news20) and 4× (gisette), best s in 64–128.
void run_table5(const Config& cfg, JsonSink& json) {
  sa::bench::print_header(
      "Table V — SA-SVM-L1 speedups over SVM-L1 at paper scale",
      "Metered 2-rank runs rescaled to the paper's P and priced on an "
      "XC30-like machine.\nExpected: best-s speedups in the paper's "
      "1.4x-4x band, larger for denser/bigger problems.");

  struct Point {
    sa::data::PaperDataset which;
    double shrink;
    int target_p;
    std::size_t h;
  };
  const std::vector<Point> points = {
      {sa::data::PaperDataset::kNews20Binary, 800.0, 576, 4000},
      {sa::data::PaperDataset::kRcv1Binary, 40.0, 240, 4000},
      {sa::data::PaperDataset::kGisette, 10.0, 3072, 3000},
  };
  // Smoke mode: ten times smaller twins and H.
  const std::size_t scale = cfg.smoke ? 10 : 1;

  std::vector<std::string> items;
  for (const Point& pt : points) {
    const sa::data::Dataset d = sa::data::make_paper_twin(
        pt.which, pt.shrink * static_cast<double>(scale), 42,
        /*force_classification=*/true);
    const std::size_t h = pt.h / scale;
    std::printf("\n--- %s twin @ P=%d: %zu x %zu, %.3f%% nnz ---\n",
                d.name.c_str(), pt.target_p, d.num_points(),
                d.num_features(), 100.0 * d.density());

    const double ref_seconds =
        paper_scale_seconds(run_svm_metered(d, 0, h), pt.target_p);
    std::printf("%-16s %14.4fs\n", "SVM-L1", ref_seconds);

    double best_speedup = 0.0;
    std::size_t best_s = 0;
    std::vector<std::string> sweep;
    for (std::size_t s : {16, 32, 64, 128, 256}) {
      const double seconds =
          paper_scale_seconds(run_svm_metered(d, s, h), pt.target_p);
      const double speedup = ref_seconds / seconds;
      std::printf("SA-SVM-L1 s=%-4zu %14.4fs  (%.2fx)\n", s, seconds,
                  speedup);
      sweep.push_back("{\"s\":" + jnum(static_cast<double>(s)) +
                      ",\"modelled_seconds\":" + jnum(seconds) +
                      ",\"speedup\":" + jnum(speedup) + "}");
      if (speedup > best_speedup) {
        best_speedup = speedup;
        best_s = s;
      }
    }
    std::printf("best: s=%zu at %.2fx (paper Table V reports 1.4x-4x)\n",
                best_s, best_speedup);
    items.push_back("{\"dataset\":" + jstr(d.name) +
                    ",\"processors\":" + jnum(pt.target_p) +
                    ",\"svm_seconds\":" + jnum(ref_seconds) +
                    ",\"sweep\":" + jarr(sweep) +
                    ",\"best_s\":" + jnum(static_cast<double>(best_s)) +
                    ",\"best_speedup\":" + jnum(best_speedup) + "}");
  }
  json.add("table5", jarr(items));
}

// ---------------------------------------------------------------------
// ablation — the s / µ / machine tradeoffs behind the SA design
// ---------------------------------------------------------------------

/// Three studies beyond the paper's figures:
///   1. numerical drift vs s — max relative deviation of the SA iterate
///      from the non-SA iterate as s grows (extends Table III);
///   2. modelled best-s crossover vs machine latency — how the optimal
///      unrolling depth moves from shared memory to Ethernet (the paper's
///      Spark remark in §VII);
///   3. µ-vs-s interaction — total speedup of (µ, s) pairs at fixed P:
///      large µ already amortizes latency and leaves less for s to win.
/// All three are cheap, so smoke mode is the same.
void run_ablation(const Config& /*cfg*/, JsonSink& json) {
  sa::bench::print_header(
      "Ablation — s/mu/machine tradeoffs behind the SA design",
      "Extends Table III and Figure 4 with drift-vs-s, best-s-vs-latency, "
      "and mu-s interaction studies.");

  std::printf("\n--- Ablation 1: numerical drift of SA iterates vs s ---\n");
  sa::data::RegressionConfig rc;
  rc.num_points = 96;
  rc.num_features = 48;
  rc.density = 0.3;
  rc.support_size = 8;
  rc.seed = 13;
  const sa::data::Dataset d = sa::data::make_regression(rc).dataset;
  SolverSpec base = SolverSpec::make("lasso")
                        .with_lambda(0.05)
                        .with_block_size(4)
                        .with_acceleration(true)
                        .with_max_iterations(256)
                        .with_seed(5);
  const SolveResult ref = sa::core::solve(d, base);
  std::printf("%8s %24s\n", "s", "max rel iterate diff");
  std::vector<std::string> drift;
  for (std::size_t s : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    SolverSpec spec = base;
    spec.algorithm = "sa-lasso";
    spec.s = s;
    const double diff =
        sa::la::max_rel_diff(ref.x, sa::core::solve(d, spec).x);
    std::printf("%8zu %24.3e\n", s, diff);
    drift.push_back("{\"s\":" + jnum(static_cast<double>(s)) +
                    ",\"max_rel_iterate_diff\":" + jnum(diff) + "}");
  }
  std::printf("(expected: all entries near machine precision — the paper's "
              "stability claim)\n");

  std::printf("\n--- Ablation 2: modelled best s vs machine latency ---\n");
  sa::perf::BcdParams p;
  p.iterations = 1000;
  p.block_size = 1;
  p.density = 0.01;
  p.rows = 1 << 20;
  p.cols = 1 << 15;
  p.processors = 3072;
  const std::vector<std::size_t> candidates{1,  2,  4,  8,   16,  32,
                                            64, 128, 256, 512, 1024};
  std::printf("%-16s %10s %10s\n", "machine", "alpha", "best s");
  std::vector<std::string> machines;
  for (const auto& machine :
       {sa::perf::MachineParams::shared_memory(),
        sa::perf::MachineParams::cray_xc30(),
        sa::perf::MachineParams::ethernet_cluster()}) {
    const std::size_t best = sa::perf::best_s(p, candidates, machine);
    std::printf("%-16s %10.2e %10zu\n", machine.name.c_str(), machine.alpha,
                best);
    machines.push_back("{\"machine\":" + jstr(machine.name) +
                       ",\"alpha\":" + jnum(machine.alpha) +
                       ",\"best_s\":" + jnum(static_cast<double>(best)) +
                       "}");
  }
  std::printf("(expected: best s grows with machine latency — the paper's "
              "Spark/latency remark in Section VII)\n");

  std::printf("\n--- Ablation 3: total speedup for (mu, s) pairs @ P=3072 "
              "---\n");
  std::printf("%8s", "mu\\s");
  const std::vector<std::size_t> s_values{2, 8, 32, 128};
  for (std::size_t s : s_values) std::printf(" %9zu", s);
  std::printf("\n");
  std::vector<std::string> pairs;
  for (std::size_t mu : {1, 2, 4, 8, 16}) {
    p.block_size = mu;
    std::printf("%8zu", mu);
    for (const auto& b : sa::perf::speedup_sweep(
             p, s_values, sa::perf::MachineParams::cray_xc30())) {
      std::printf(" %8.2fx", b.total);
      pairs.push_back("{\"mu\":" + jnum(static_cast<double>(mu)) +
                      ",\"s\":" + jnum(static_cast<double>(b.s)) +
                      ",\"speedup\":" + jnum(b.total) + "}");
    }
    std::printf("\n");
  }
  std::printf("(expected: the larger mu is, the smaller the attainable SA "
              "speedup — matches the accCD-vs-accBCD drop between the "
              "paper's reported 2.8-5.1x and 1.2-4.4x ranges)\n");
  json.add("ablation", "{\"drift\":" + jarr(drift) +
                           ",\"best_s\":" + jarr(machines) +
                           ",\"mu_s_speedup\":" + jarr(pairs) + "}");
}

// Every figure, in the order `all` runs them.
struct Figure {
  const char* name;
  void (*run)(const Config&, JsonSink&);
};
constexpr Figure kFigures[] = {
    {"convergence", run_convergence}, {"runtime", run_runtime},
    {"scaling", run_scaling},         {"overlap", run_overlap},
    {"table1", run_table1},           {"table3", run_table3},
    {"table5", run_table5},           {"ablation", run_ablation},
};

}  // namespace

int main(int argc, char** argv) {
  std::string figure = "all";
  std::string json_path;
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
      cfg.h = 120;
      cfg.trace_every = 40;
      cfg.s = 8;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json requires a path\n");
        return 2;
      }
      json_path = argv[++i];
    } else {
      figure = argv[i];
    }
  }
  bool known = figure == "all";
  for (const Figure& f : kFigures) known = known || figure == f.name;
  if (!known) {
    std::fprintf(stderr,
                 "usage: bench_figures "
                 "[convergence|runtime|scaling|overlap|table1|table3|table5|"
                 "ablation|all] [--smoke] [--json out.json]\n");
    return 2;
  }

  JsonSink json;
  json.enabled = !json_path.empty();
  for (const Figure& f : kFigures)
    if (figure == "all" || figure == f.name) f.run(cfg, json);

  if (json.enabled) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"smoke\":%s", cfg.smoke ? "true" : "false");
    for (const auto& [name, value] : json.figures)
      std::fprintf(f, ",\n\"%s\":%s", name.c_str(), value.c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nJSON written to %s\n", json_path.c_str());
  }
  return 0;
}
