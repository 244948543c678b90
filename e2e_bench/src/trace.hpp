// Benchmark-side tracing.  Spans are recorded by the benchmark around its
// calls into the library's public functions, never inside the library:
//
//   * SpanLog — a fixed-capacity span buffer, sized before the solve so
//     recording is a few stores and no allocation; spans past capacity
//     are counted as dropped, not stored.  Logs are read after the solve.
//   * TracedComm — a Communicator decorator around one rank's ThreadComm
//     that times every collective it forwards.  It forwards exactly the
//     way dist::FaultyComm does (the decorator is what the solver meters,
//     the delivery digest is the inner backend's), so a solve on it
//     charges the same counters as one on the bare ThreadComm.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dist/comm.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

enum class SpanKind : std::uint8_t {
  kRound,      ///< one communication round, observer call to observer call
  kFinish,     ///< last round's end to the return of Solver::run()
  kAllreduce,  ///< blocking allreduce_sum
  kStart,      ///< allreduce_start (split phase)
  kWait,       ///< allreduce_wait (split phase)
  kBroadcast,  ///< broadcast_bytes (snapshot restore)
};

struct Span {
  SpanKind kind = SpanKind::kRound;
  Clock::time_point begin;
  Clock::time_point end;
  std::size_t words = 0;  ///< payload words of a collective

  double seconds() const { return seconds_between(begin, end); }
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

  void record(SpanKind kind, Clock::time_point begin, Clock::time_point end,
              std::size_t words = 0) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{kind, begin, end, words});
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }

  /// Empties the log for the next solve, keeping its storage.
  void clear() {
    spans_.clear();
    dropped_ = 0;
  }

 private:
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

class TracedComm final : public sa::dist::Communicator {
 public:
  TracedComm(sa::dist::Communicator& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }

  void enable_reduce_digest(bool on) override {
    inner_.enable_reduce_digest(on);
  }
  bool reduce_digest_enabled() const override {
    return inner_.reduce_digest_enabled();
  }
  std::uint64_t last_reduce_digest() const override {
    return inner_.last_reduce_digest();
  }

  // The base implementation chunks the bytes through allreduce_sum on
  // this decorator, so its collectives are timed individually as well.
  void broadcast_bytes(std::vector<std::uint8_t>& bytes,
                       int root = 0) override {
    const Clock::time_point t0 = Clock::now();
    Communicator::broadcast_bytes(bytes, root);
    log_.record(SpanKind::kBroadcast, t0, Clock::now(), bytes.size());
  }

 protected:
  void do_allreduce_sum(std::span<double> data) override {
    const Clock::time_point t0 = Clock::now();
    inner_.allreduce_sum(data);
    log_.record(SpanKind::kAllreduce, t0, Clock::now(), data.size());
  }

  void do_allreduce_start(std::span<double> data) override {
    const Clock::time_point t0 = Clock::now();
    inner_.allreduce_start(data);
    log_.record(SpanKind::kStart, t0, Clock::now(), data.size());
  }

  void do_allreduce_wait(std::span<double> data) override {
    const Clock::time_point t0 = Clock::now();
    inner_.allreduce_wait(wait_deadline());
    log_.record(SpanKind::kWait, t0, Clock::now(), data.size());
  }

 private:
  sa::dist::Communicator& inner_;
  SpanLog& log_;
};

}  // namespace e2e
