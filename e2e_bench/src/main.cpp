// e2e_bench — end-to-end solve benchmark driver (see e2e_bench/README.md).
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--git-sha SHA] [--reference-scale F]
//
// One process measures one workload.  It builds the workload's inputs from
// the seed, runs whole solves through core::make_solver on a
// dist::ThreadTeam for about S seconds, checks every result, and prints a
// report whose last line is one JSON object
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics of untraced solves; --trace 1
// the per-layer metrics of a traced run, which alternates traced and
// untraced solves so the tracing overhead is measured in the same process.
// --smoke runs tiny versions of the workloads; --reference-scale moves the
// gate's reference (the benchmark's own test uses it to prove the gate can
// fail).  OMP_NUM_THREADS must be 1: the ranks are the threads.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/grouping.hpp"
#include "core/local_data.hpp"
#include "core/registry.hpp"
#include "data/libsvm_io.hpp"
#include "data/rng.hpp"
#include "dist/thread_comm.hpp"
#include "la/batch_view.hpp"
#include "la/simd/simd.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

namespace core = sa::core;
namespace data = sa::data;
namespace dist = sa::dist;
namespace la = sa::la;
namespace fs = std::filesystem;
using e2e::Clock;
using e2e::seconds_between;
using e2e::Span;
using e2e::SpanKind;
using e2e::SpanLog;
using e2e::Workload;

constexpr int kSchemaVersion = 1;
constexpr int kSetupRepeats = 9;  // setup_s is the median of these

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  std::string git_sha = "unknown";
  double reference_scale = 1.0;
};

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = std::stoi(value());
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--git-sha") {
      o.git_sha = value();
    } else if (arg == "--reference-scale") {
      o.reference_scale = std::stod(value());
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (o.workload.empty() || !have_seed || !(o.seconds > 0.0) ||
      (o.trace != 0 && o.trace != 1)) {
    throw std::invalid_argument(
        "usage: e2e_bench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--smoke] [--git-sha SHA] [--reference-scale F]");
  }
  return o;
}

// ---------------------------------------------------------------------------
// Statistics and process counters
// ---------------------------------------------------------------------------

/// Linearly interpolated quantile q ∈ [0, 1] of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// One solve
// ---------------------------------------------------------------------------

/// Per-rank span buffers of a traced solve, sized once per run.
struct Tracer {
  std::vector<SpanLog> comm;  // per rank: every collective
  SpanLog rounds;             // rank 0: each round, then finish()

  Tracer(int ranks, std::size_t round_capacity)
      : rounds(round_capacity + 1) {
    for (int r = 0; r < ranks; ++r)
      comm.emplace_back(4 * round_capacity + 4096);
  }
  void clear() {
    for (SpanLog& log : comm) log.clear();
    rounds.clear();
  }
};

struct Outcome {
  double wall_s = 0.0;         // restore_from_file (resumes only) + run()
  double cpu_s = 0.0;          // process CPU over the same interval
  double restore_s = 0.0;      // restore_from_file alone
  core::SolveResult result;    // rank 0's
  std::vector<dist::CommStats> stats;  // per rank, from each SolveResult
};

/// How many checkpoints a solve attempts while advancing to `target`
/// iterations of `total` (the engine's since-last-checkpoint rule).
std::size_t checkpoint_attempts(std::size_t target, std::size_t total,
                                std::size_t depth, std::size_t every) {
  if (every == 0) return 0;
  std::size_t done = 0, since = 0, attempts = 0;
  while (done < target) {
    const std::size_t step = std::min(depth, total - done);
    done += step;
    since += step;
    if (since >= every) {
      ++attempts;
      since = 0;
    }
  }
  return attempts;
}

class Bench {
 public:
  Bench(Workload w, fs::path dir, double reference_scale)
      : w_(std::move(w)),
        dir_(std::move(dir)),
        reference_scale_(reference_scale),
        team_(w_.ranks),
        sync_(w_.ranks) {
    fs::create_directories(dir_);
  }

  ~Bench() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  const Workload& workload() const { return w_; }
  const data::Dataset& dataset() const { return dataset_; }
  const data::Partition& partition() const { return partition_; }
  fs::path path(const std::string& file) const { return dir_ / file; }

  /// Seconds the one-time generation took (kLibsvmTwin writes the file).
  double prepare() {
    if (w_.source != e2e::DataSource::kLibsvmTwin) return 0.0;
    const Clock::time_point t0 = Clock::now();
    const data::Dataset d = e2e::generate(w_);
    const double gen_s = seconds_between(t0, Clock::now());
    num_features_ = d.num_features();
    data::write_libsvm_file(path("data.libsvm").string(), d);
    return gen_s;
  }

  struct Setup {
    double data_s = 0.0;       // generation or LIBSVM read
    double construct_s = 0.0;  // make_solver on every rank
    double total() const { return data_s + construct_s; }
  };

  /// One set-up: load the data, partition it, construct every rank's
  /// solver.  The dataset and partition are kept for the solves.
  Setup setup() {
    Setup s;
    // Drop the previous set-up's data first, so the peak resident set
    // holds one copy of it, not two.
    dataset_ = data::Dataset{};
    const Clock::time_point t0 = Clock::now();
    dataset_ = load();
    partition_ = core::partition_for_ranks(dataset_, w_.spec, w_.ranks);
    const Clock::time_point t1 = Clock::now();
    team_.run([&](dist::ThreadComm& comm) {
      (void)core::make_solver(comm, dataset_, partition_, w_.spec);
    });
    s.data_s = seconds_between(t0, t1);
    s.construct_s = seconds_between(t1, Clock::now());
    return s;
  }

  /// Runs one whole solve of `spec`; with `resume_from` the solvers are
  /// restored from that snapshot first; with `tracer` every collective is
  /// timed and rank 0 records a span per round.
  Outcome solve(const core::SolverSpec& spec, const std::string& resume_from,
                Tracer* tracer) {
    Outcome out;
    const int p = w_.ranks;
    std::vector<core::SolveResult> results(p);
    std::vector<Clock::time_point> ends(p);
    std::atomic<bool> construct_failed{false};
    Clock::time_point t0;
    double cpu0 = 0.0;
    if (tracer) tracer->clear();
    team_.run([&](dist::ThreadComm& tc) {
      const int r = tc.rank();
      std::optional<e2e::TracedComm> traced;
      dist::Communicator* comm = &tc;
      if (tracer) comm = &traced.emplace(tc, tracer->comm[r]);
      std::unique_ptr<core::Solver> solver;
      try {
        solver = core::make_solver(*comm, dataset_, partition_, spec);
      } catch (...) {
        construct_failed = true;
        sync_.arrive_and_wait();
        throw;
      }
      // Timing starts once every rank holds a solver, so construction
      // skew between ranks is not charged to the solve.
      sync_.arrive_and_wait();
      if (construct_failed)
        throw std::runtime_error("a peer rank failed to construct");
      if (r == 0) {
        t0 = Clock::now();
        cpu0 = process_cpu_seconds();
      }
      if (!resume_from.empty()) {
        const Clock::time_point tr = Clock::now();
        solver->restore_from_file(resume_from);
        if (r == 0) out.restore_s = seconds_between(tr, Clock::now());
      }
      if (tracer && r == 0) {
        // Round boundaries come from the per-round observer rather than
        // from step(1) calls: a step that ends the caller's budget rolls
        // back the pipeline's speculative plan of the next round, so a
        // step(1) loop redoes every plan and loses the overlap.
        SpanLog& log = tracer->rounds;
        Clock::time_point last = Clock::now();
        solver->set_observer([&log, &last](std::size_t) {
          const Clock::time_point now = Clock::now();
          log.record(SpanKind::kRound, last, now);
          last = now;
        });
        results[r] = solver->run();
        log.record(SpanKind::kFinish, last, Clock::now());
      } else {
        results[r] = solver->run();
      }
      ends[r] = Clock::now();
    });
    out.wall_s =
        seconds_between(t0, *std::max_element(ends.begin(), ends.end()));
    out.cpu_s = process_cpu_seconds() - cpu0;
    for (const core::SolveResult& res : results) out.stats.push_back(res.stats);
    out.result = std::move(results[0]);
    return out;
  }

  /// The mid-solve snapshot resume_s restores from: a solve advanced to
  /// H/2 with the engine's own checkpointing on (the workload's cadence,
  /// or one checkpoint at H/2), then finished, which drains the writer.
  Outcome write_mid_snapshot() {
    core::SolverSpec spec = w_.spec;
    const std::size_t half = spec.max_iterations / 2;
    spec.with_checkpoint(mid_snapshot(),
                         w_.checkpoint_every ? w_.checkpoint_every : half);
    Outcome out;
    std::vector<core::SolveResult> results(w_.ranks);
    team_.run([&](dist::ThreadComm& comm) {
      auto solver = core::make_solver(comm, dataset_, partition_, spec);
      solver->step(half);
      results[comm.rank()] = solver->finish();
    });
    for (const core::SolveResult& res : results) out.stats.push_back(res.stats);
    out.result = std::move(results[0]);
    mid_attempts_ = checkpoint_attempts(half, spec.max_iterations,
                                        spec.unroll_depth(),
                                        spec.checkpoint_every);
    return out;
  }

  std::string mid_snapshot() const { return path("mid.snap").string(); }
  std::size_t mid_attempts() const { return mid_attempts_; }

  /// The spec of a timed solve: the workload's, with its checkpoint file.
  core::SolverSpec timed_spec() const {
    core::SolverSpec spec = w_.spec;
    if (w_.checkpoint_every > 0)
      spec.with_checkpoint(path("ckpt.snap").string(), w_.checkpoint_every);
    return spec;
  }

  double last_ratio() const { return last_ratio_; }
  double reference_ratio() const { return reference_ratio_; }

  /// Solves the workload's reference variant serially on the loaded data
  /// and records the progress ratio the gate compares against.
  void solve_reference() {
    const e2e::Progress p =
        e2e::progress(w_, dataset_, core::solve(dataset_, w_.reference));
    if (!p.error.empty() || !p.improved)
      throw std::runtime_error("reference solve (" + w_.reference.algorithm +
                               ") failed: " + p.error);
    reference_ratio_ = p.ratio;
  }

  /// Correctness gate: returns why `r` fails, or "" when it passes.
  /// Every later solve, and every resume, must equal the first
  /// uninterrupted solution bitwise.
  std::string check(const core::SolveResult& r, bool uninterrupted) {
    const e2e::Progress p = e2e::progress(w_, dataset_, r);
    if (!p.error.empty()) return p.error;
    last_ratio_ = p.ratio;
    if (!p.improved) return "no progress over the zero iterate";
    const double ref = reference_ratio_ * reference_scale_;
    if (std::abs(p.ratio - ref) > w_.reference_tolerance * std::abs(ref)) {
      return "progress ratio " + json_number(p.ratio) + " is not within " +
             json_number(w_.reference_tolerance) + " (relative) of the " +
             w_.reference.algorithm + " reference " + json_number(ref);
    }
    if (!first_.has_value()) {
      if (!uninterrupted) return "no uninterrupted solution to compare with";
      first_ = r;
      return "";
    }
    auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    };
    if (!same(r.x, first_->x) || !same(r.alpha, first_->alpha)) {
      return uninterrupted ? "solution differs bitwise from the first solve"
                           : "resumed solution differs bitwise from the "
                             "uninterrupted one";
    }
    return "";
  }

 private:
  data::Dataset load() const {
    if (w_.source != e2e::DataSource::kLibsvmTwin) return e2e::generate(w_);
    data::LibsvmReadOptions opts;
    opts.num_features = num_features_;
    return data::read_libsvm_file(path("data.libsvm").string(), opts);
  }

  Workload w_;
  fs::path dir_;
  double reference_scale_ = 1.0;
  dist::ThreadTeam team_;
  std::barrier<> sync_;
  data::Dataset dataset_;
  data::Partition partition_;
  std::size_t num_features_ = 0;
  std::size_t mid_attempts_ = 0;
  double last_ratio_ = 0.0;
  double reference_ratio_ = 0.0;
  std::optional<core::SolveResult> first_;
};

// ---------------------------------------------------------------------------
// The timed loop
// ---------------------------------------------------------------------------

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// Runs one operation; an exception or a failed gate counts as failed.
  void run(const char* what, const std::function<bool(std::string&)>& op) {
    ++attempted;
    std::string error;
    bool ok = false;
    try {
      ok = op(error);
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "e2e_bench: %s failed: %s\n", what, error.c_str());
    }
  }
};

/// Calls `body` until about `seconds` have passed: a new iteration starts
/// only if the previous one would still fit.  Always runs at least once.
void timed_loop(double seconds, const std::function<void()>& body) {
  const Clock::time_point start = Clock::now();
  double last = 0.0;
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_between(start, Clock::now());
    if (i > 0 && elapsed + last > seconds) break;
    const Clock::time_point b = Clock::now();
    body();
    last = seconds_between(b, Clock::now());
  }
}

// ---------------------------------------------------------------------------
// Per-layer analysis of traced solves
// ---------------------------------------------------------------------------

struct TracedSolve {
  double wall_s = 0.0;
  double rounds_s = 0.0;   // Σ round spans
  double finish_s = 0.0;
  double wait_s = 0.0;     // Σ allreduce_wait spans, rank 0
  double commstats_wait_s = 0.0;
  std::size_t rounds = 0;
  std::size_t dropped = 0;
};

TracedSolve summarize(const Outcome& o, const Tracer& t,
                      std::vector<double>& round_ms,
                      std::vector<double>& collective_us) {
  TracedSolve s;
  s.wall_s = o.wall_s;
  s.commstats_wait_s = o.stats[0].wait_seconds;
  for (const Span& span : t.rounds.spans()) {
    if (span.kind == SpanKind::kRound) {
      ++s.rounds;
      s.rounds_s += span.seconds();
      round_ms.push_back(1e3 * span.seconds());
    } else if (span.kind == SpanKind::kFinish) {
      s.finish_s += span.seconds();
    }
  }
  // A split-phase collective costs its rank the time inside start() plus
  // the time inside wait(); the work overlapped in between is not its.
  double pending_start = -1.0;
  for (const Span& span : t.comm[0].spans()) {
    switch (span.kind) {
      case SpanKind::kStart:
        pending_start = span.seconds();
        break;
      case SpanKind::kWait:
        s.wait_s += span.seconds();
        collective_us.push_back(
            1e6 * (span.seconds() + std::max(0.0, pending_start)));
        pending_start = -1.0;
        break;
      case SpanKind::kAllreduce:
        collective_us.push_back(1e6 * span.seconds());
        break;
      default:
        break;
    }
  }
  s.dropped = t.rounds.dropped();
  for (const SpanLog& log : t.comm) s.dropped += log.dropped();
  return s;
}

/// Fused-kernel replay: la::sampled_gram_and_dots on views of rank 0's
/// block with the workload's batch shape (k sampled columns of the local
/// rows, or rows of the local columns for SVM), timed around the kernel.
struct KernelProbe {
  double gflops = 0.0;
  double flops_per_byte = 0.0;  // computed from the view's nnz
};

KernelProbe probe_kernel(const Bench& b, double seconds) {
  const Workload& w = b.workload();
  const core::SolverSpec& spec = w.spec;
  const bool by_rows =
      core::SolverRegistry::instance().require(spec.algorithm).axis ==
      core::PartitionAxis::kRows;
  const std::size_t depth = spec.unroll_depth();
  std::size_t k = depth;  // SVM: one row per inner iteration
  if (spec.family() == core::SolverFamily::kLasso)
    k = depth * spec.block_size;
  if (spec.family() == core::SolverFamily::kGroupLasso)
    k = depth * w.group_size;
  const std::size_t nrhs =
      spec.family() == core::SolverFamily::kLasso && spec.accelerated ? 2 : 1;

  std::optional<core::RowBlock> rows;
  std::optional<core::ColBlock> cols;
  std::size_t dim = 0, extent = 0;
  if (by_rows) {
    rows.emplace(b.dataset(), b.partition(), 0);
    dim = rows->local_rows();
    extent = rows->num_features();
  } else {
    cols.emplace(b.dataset(), b.partition(), 0);
    dim = cols->local_cols();
    extent = cols->num_points();
  }
  data::SplitMix64 rng(spec.seed ^ 0x6b65726e656cULL);
  std::vector<std::vector<double>> rhs(nrhs, std::vector<double>(dim));
  for (auto& v : rhs)
    for (double& e : v) e = rng.next_double() - 0.5;
  std::vector<std::span<const double>> xs(rhs.begin(), rhs.end());
  std::vector<std::size_t> idx(k);
  std::vector<double> out(la::fused_buffer_size(k, nrhs));
  la::Workspace ws;

  double busy = 0.0, flops = 0.0, bytes = 0.0;
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < seconds) {
    if (spec.family() == core::SolverFamily::kGroupLasso) {
      for (std::size_t g = 0; g < depth; ++g) {
        const std::size_t groups = spec.groups.num_groups();
        const std::size_t first =
            spec.groups.offsets[rng.next_below(groups)];
        for (std::size_t l = 0; l < w.group_size; ++l)
          idx[g * w.group_size + l] = std::min(first + l, extent - 1);
      }
    } else {
      for (std::size_t& i : idx) i = rng.next_below(extent);
    }
    const la::BatchView view =
        by_rows ? rows->view_columns(idx, ws) : cols->view_rows(idx, ws);
    const Clock::time_point t0 = Clock::now();
    la::sampled_gram_and_dots(view, xs, out);
    busy += seconds_between(t0, Clock::now());
    flops += static_cast<double>(view.gram_flops() +
                                 nrhs * view.dot_all_flops());
    // Compulsory traffic: every member value once (plus its index when
    // sparse), the rhs entries the dots read, and the output buffer.
    const double nnz = static_cast<double>(view.nnz());
    bytes += view.is_dense()
                 ? 8.0 * (nnz + static_cast<double>(nrhs * dim))
                 : 16.0 * nnz + 8.0 * static_cast<double>(nrhs) * nnz;
    bytes += 8.0 * static_cast<double>(out.size());
  }
  KernelProbe p;
  p.gflops = busy > 0.0 ? flops / busy / 1e9 : 0.0;
  p.flops_per_byte = bytes > 0.0 ? flops / bytes : 0.0;
  return p;
}

// ---------------------------------------------------------------------------
// Entry
// ---------------------------------------------------------------------------

std::size_t round_section_words(const dist::CommStats& s) {
  std::size_t words = 0;
  for (const dist::SectionTraffic& t : s.sections) words += t.words;
  return words;
}

std::size_t reduction_chunks(const Bench& b) {
  const core::SolverSpec& spec = b.workload().spec;
  const bool by_rows =
      core::SolverRegistry::instance().require(spec.algorithm).axis ==
      core::PartitionAxis::kRows;
  const std::size_t extent = by_rows ? b.dataset().num_points()
                                     : b.dataset().num_features();
  return sa::common::ReduceGrouping::make(extent, spec.reduction_chunk)
      .num_chunks();
}

int run(const Options& opt) {
  // A fixed mmap threshold turns off glibc's adaptive one, under which
  // whether a freed dataset's pages are reused or kept depends on the
  // order of earlier frees: peak_rss_mb then jumped by a dataset's size
  // between identical runs.  Fixed, large buffers are mapped and returned
  // to the system on free, so the peak reflects live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const char* omp = std::getenv("OMP_NUM_THREADS");
  if (omp == nullptr || std::string(omp) != "1")
    throw std::invalid_argument(
        "OMP_NUM_THREADS must be 1 (ranks are threads)");

  Workload w = e2e::make_workload(opt.workload, opt.smoke, opt.seed);
  const fs::path dir = fs::path(".bench_work") /
                       (w.name + "-" + std::to_string(opt.seed) + "-" +
                        std::to_string(::getpid()));
  Bench bench(std::move(w), dir, opt.reference_scale);
  const Workload& wl = bench.workload();
  const bool traced = opt.trace == 1;
  const core::SolverSpec spec = bench.timed_spec();

  // --- Set-up -------------------------------------------------------
  const double generate_once_s = bench.prepare();
  std::vector<double> setup_s, data_s, construct_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Bench::Setup s = bench.setup();
    setup_s.push_back(s.total());
    data_s.push_back(s.data_s);
    construct_s.push_back(s.construct_s);
  }

  bench.solve_reference();

  // --- Resume snapshot (also the warm-up solve) -----------------------
  const Outcome mid = bench.write_mid_snapshot();
  const std::uintmax_t snapshot_bytes = fs::file_size(bench.mid_snapshot());

  // --- Timed loop -----------------------------------------------------
  Tally tally;
  std::vector<double> solve_s, cpu_s, resume_s, restore_s, traced_s;
  std::vector<double> pack_s, apply_s, ckpt_s, round_ms, collective_us;
  std::vector<TracedSolve> traced_solves;
  std::vector<dist::CommStats> counters;  // per rank, last clean solve
  std::size_t ckpt_skips = 0;
  std::optional<Tracer> tracer;
  if (traced) {
    const std::size_t depth = spec.unroll_depth();
    tracer.emplace(wl.ranks, (spec.max_iterations + depth - 1) / depth);
  }
  auto uninterrupted = [&](std::string& error) {
    Outcome o = bench.solve(spec, "", nullptr);
    error = bench.check(o.result, true);
    if (!error.empty()) return false;
    solve_s.push_back(o.wall_s);
    cpu_s.push_back(o.cpu_s);
    pack_s.push_back(o.stats[0].pack_seconds);
    apply_s.push_back(o.stats[0].apply_seconds);
    ckpt_s.push_back(o.stats[0].checkpoint_seconds);
    ckpt_skips = o.stats[0].checkpoint_skips;
    counters = o.stats;
    return true;
  };
  auto resume = [&](std::string& error) {
    Outcome o = bench.solve(spec, bench.mid_snapshot(), nullptr);
    error = bench.check(o.result, false);
    if (!error.empty()) return false;
    resume_s.push_back(o.wall_s);
    restore_s.push_back(o.restore_s);
    return true;
  };
  auto traced_solve = [&](std::string& error) {
    Outcome o = bench.solve(spec, "", &*tracer);
    error = bench.check(o.result, true);
    if (!error.empty()) return false;
    traced_s.push_back(o.wall_s);
    traced_solves.push_back(summarize(o, *tracer, round_ms, collective_us));
    return true;
  };
  timed_loop(opt.seconds, [&] {
    tally.run("solve", uninterrupted);
    if (traced) {
      tally.run("traced solve", traced_solve);
    } else {
      tally.run("resume", resume);
    }
  });
  if (traced) tally.run("resume", resume);

  // --- Report ---------------------------------------------------------
  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  };
  // An empty sample (every operation of its kind failed) reports null.
  auto q = [](const std::vector<double>& v, double p) {
    return v.empty() ? std::nan("") : quantile(v, p);
  };
  auto med = [&](const std::vector<double>& v) { return q(v, 0.5); };
  const dist::CommStats& c0 =
      counters.empty() ? mid.stats[0] : counters[0];
  std::size_t flops_all = 0;
  for (const dist::CommStats& s : counters) flops_all += s.flops;

  if (!traced) {
    add("solve_s", med(solve_s), "s");
    add("cpu_s", med(cpu_s), "s");
    add("setup_s", med(setup_s), "s");
    add("resume_s", med(resume_s), "s");
    add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    std::vector<double> residual, finish_ms, wait_s, cs_wait_s, share;
    std::size_t rounds = 0, dropped = 0;
    for (const TracedSolve& t : traced_solves) {
      residual.push_back(100.0 * (t.wall_s - t.rounds_s - t.finish_s) /
                         t.wall_s);
      finish_ms.push_back(1e3 * t.finish_s);
      wait_s.push_back(t.wait_s);
      cs_wait_s.push_back(t.commstats_wait_s);
      share.push_back(t.wait_s / t.wall_s);
      rounds = t.rounds;
      dropped += t.dropped;
    }
    if (dropped > 0)
      std::fprintf(stderr, "e2e_bench: %zu spans dropped (log full)\n",
                   dropped);
    const bool periodic = wl.checkpoint_every > 0;
    const double la_seconds = opt.smoke ? 0.05 : 0.5;
    const KernelProbe kernel = probe_kernel(bench, la_seconds);

    // The data layer's LIBSVM reader, on the workload's own data: svm-sync
    // reads it in every set-up; the others write it once here and time
    // one read.
    double read_s = 0.0, read_bytes = 0.0;
    double generate_s = med(data_s);
    if (wl.source == e2e::DataSource::kLibsvmTwin) {
      read_s = med(data_s);
      generate_s = generate_once_s;
      read_bytes =
          static_cast<double>(fs::file_size(bench.path("data.libsvm")));
    } else {
      const std::string file = bench.path("probe.libsvm").string();
      data::write_libsvm_file(file, bench.dataset());
      data::LibsvmReadOptions opts;
      opts.num_features = bench.dataset().num_features();
      const Clock::time_point t0 = Clock::now();
      const data::Dataset d = data::read_libsvm_file(file, opts);
      read_s = seconds_between(t0, Clock::now());
      read_bytes = static_cast<double>(fs::file_size(file));
      fs::remove(file);
    }

    add("core.round_ms_p50", q(round_ms, 0.5), "ms");
    add("core.round_ms_p99", q(round_ms, 0.99), "ms");
    add("core.rounds", static_cast<double>(rounds), "count");
    add("core.pack_s", med(pack_s), "s");
    add("core.apply_s", med(apply_s), "s");
    add("core.replicated_flops", static_cast<double>(c0.replicated_flops),
        "count");
    add("core.construct_s", med(construct_s), "s");
    add("core.finish_ms", med(finish_ms), "ms");
    add("core.span_residual_pct", med(residual), "%");
    add("la.gram_gflops", kernel.gflops, "GFLOP/s");
    add("la.flops", static_cast<double>(flops_all), "count");
    add("la.flops_per_byte", kernel.flops_per_byte, "flop/B");
    add("dist.allreduce_us_p50", q(collective_us, 0.5), "us");
    add("dist.allreduce_us_p99", q(collective_us, 0.99), "us");
    add("dist.wait_s", med(wait_s), "s");
    add("dist.commstats_wait_s", med(cs_wait_s), "s");
    add("dist.wait_share", med(share), "ratio");
    add("dist.collectives", static_cast<double>(c0.collectives), "count");
    add("dist.words_per_round",
        rounds ? static_cast<double>(round_section_words(c0)) /
                     static_cast<double>(rounds)
               : 0.0,
        "count");
    // io: the timed solves' checkpoints on glasso-ckpt-p2; elsewhere the
    // one checkpoint that writes the resume snapshot.
    add("io.checkpoint_stall_s",
        periodic ? med(ckpt_s) : mid.stats[0].checkpoint_seconds, "s");
    const std::size_t attempts =
        periodic ? checkpoint_attempts(spec.max_iterations,
                                       spec.max_iterations,
                                       spec.unroll_depth(),
                                       spec.checkpoint_every)
                 : bench.mid_attempts();
    const std::size_t skips =
        periodic ? ckpt_skips : mid.stats[0].checkpoint_skips;
    add("io.checkpoints",
        static_cast<double>(attempts - std::min(attempts, skips)), "count");
    add("io.checkpoint_skips", static_cast<double>(skips), "count");
    add("io.snapshot_bytes", static_cast<double>(snapshot_bytes), "B");
    add("io.restore_ms", 1e3 * med(restore_s), "ms");
    add("data.generate_s", generate_s, "s");
    add("data.libsvm_read_s", read_s, "s");
    add("data.libsvm_read_mbps", read_bytes / 1e6 / read_s, "MB/s");
    add("trace.overhead_pct", 100.0 * (med(traced_s) / med(solve_s) - 1.0),
        "%");
  }

  // Human-readable lines first; the JSON result must be the last line.
  std::printf("workload %s  seed %llu  P=%d  %s%s\n", wl.name.c_str(),
              static_cast<unsigned long long>(opt.seed), wl.ranks,
              traced ? "traced" : "untraced", opt.smoke ? "  (smoke)" : "");
  std::printf("solves %zu  resumes %zu  traced %zu  setups %d  "
              "failed %zu/%zu\n",
              solve_s.size(), resume_s.size(), traced_s.size(), kSetupRepeats,
              tally.failed, tally.attempted);
  std::printf("gate: progress ratio %.17g, %s reference %.17g "
              "(tolerance %.1e)\n",
              bench.last_ratio(), wl.reference.algorithm.c_str(),
              bench.reference_ratio() * opt.reference_scale,
              wl.reference_tolerance);
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  const auto isa = static_cast<la::simd::Isa>(c0.kernel_isa);
  std::ostringstream prov;
  prov << "{\"provenance\": {\"schema\": " << kSchemaVersion
       << ", \"git_sha\": " << json_string(opt.git_sha)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"omp_num_threads\": " << omp
       << ", \"kernel_isa\": "
       << json_string(la::simd::to_cstring(isa))
       << ", \"reduction_chunks\": " << reduction_chunks(bench)
       << ", \"ranks\": " << wl.ranks << ", \"seed\": " << opt.seed
       << ", \"workload\": " << json_string(wl.name)
       << ", \"smoke\": " << (opt.smoke ? "true" : "false")
       << ", \"trace\": " << opt.trace << "}}";
  std::printf("%s\n", prov.str().c_str());

  std::ostringstream cnt;
  cnt << "{\"counters\": {\"core.rounds\": "
      << c0.section(dist::RoundSection::kGram).collectives
      << ", \"dist.collectives\": " << c0.collectives
      << ", \"dist.round_words\": " << round_section_words(c0)
      << ", \"la.flops\": " << flops_all
      << ", \"core.replicated_flops\": " << c0.replicated_flops
      << ", \"io.snapshot_bytes\": " << snapshot_bytes << "}}";
  std::printf("%s\n", cnt.str().c_str());

  std::ostringstream res;
  res << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) res << ", ";
    res << json_string(metrics[i].name) << ": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": "
        << json_string(metrics[i].unit) << "}";
  }
  res << "}}";
  std::printf("%s\n", res.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
