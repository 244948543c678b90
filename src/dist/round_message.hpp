// The packed per-round message plane every solver speaks.
//
// One outer round of every algorithm family exchanges exactly ONE
// collective, whose payload is a schema'd, contiguous buffer.  The wire
// carries one body slot per ReduceTree slot (common/grouping.hpp), then
// the objective block and the scalar trailer:
//
//   [ slot 0: gram|dots1|dots2 ] … [ slot S-1 ] [ objective × S ]
//   [ stop-flags | checksum ]  ‖  rank-local: [ chunk partials ]
//
// With one slot (serial, or the default single-chunk tree) this is
//
//   [ upper(G) | Yᵀỹ | Yᵀz̃ | objective | stop-flags | checksum ]
//    └─ kGram ─┴kDots1┴kDots2┴kObjective─┴─kStopFlags┴─kChecksum┘
//
// Each rank's pack kernels write the partials of the global chunks it
// owns into rank-local scratch past the wire (chunk_section, chunk_dots,
// objective_chunks); reduce_chunks then sums them over the rank's complete
// subtrees into its own slots.  Foreign slots stay +0.0 and contribute
// exactly nothing to the elementwise sum.  After reduce_wait, every rank
// evaluates the top of the tree into slot 0, and section() serves the
// totals there through the same accessors for any tree, so apply_round is
// grouping-agnostic.  A rank that owns a single chunk has no scratch: its
// kernels write straight into its one slot.  Only the wire rides the
// collective; the scratch never leaves the rank.
//
// The trailer sections piggy-back the stopping machinery: a per-slot
// objective partial block (objective-tolerance stopping at round
// granularity) and rank 0's wall clock (replicated wall-budget
// decisions), so enabling those criteria costs zero extra messages — only
// trailing words on the message the round pays for anyway.
// Fault-tolerant solves reserve one more trailer word, the FNV-1a body
// checksum (see seal()), the same zero-extra-messages way.
//
// The buffer is arena-backed by a la::Workspace slot: it is laid out anew
// every round but only ever grows, so steady-state rounds allocate
// nothing.  reduce_start()/reduce_wait() wrap the communicator's
// nonblocking pair and attribute per-section traffic to CommStats.
//
// Not every section is present every round: empty sections occupy zero
// words and are skipped by the accounting.  Appending or removing trailer
// sections never perturbs the reduced bits of the sections before them —
// all backends combine element-wise in a fixed order — which is what lets
// the criteria be toggled without changing the iterates (pinned by
// tests/core/test_round_plane.cpp).
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "common/grouping.hpp"
#include "dist/comm.hpp"
#include "la/workspace.hpp"

namespace sa::dist {

class RoundMessage {
 public:
  /// Binds the message to a workspace slot (the arena the packed buffer
  /// lives in).  The workspace must outlive the message.
  explicit RoundMessage(la::Workspace& ws, std::size_t slot = 0)
      : ws_(ws), slot_(slot) {}

  RoundMessage(const RoundMessage&) = delete;
  RoundMessage& operator=(const RoundMessage&) = delete;

  /// Declares the trailer (piggy-backed) section sizes for subsequent
  /// rounds.  Sticky: set once when the solve starts, before any layout().
  /// `checksum_words` (0 or 1) reserves the kChecksum section fault
  /// detection rides — see seal().
  void set_trailer_sizes(std::size_t objective_words,
                         std::size_t stop_flag_words,
                         std::size_t checksum_words = 0) {
    trailer_objective_ = objective_words;
    trailer_flags_ = stop_flag_words;
    trailer_checksum_ = checksum_words;
  }

  /// Declares the reduction tree the body and objective sections sum
  /// over.  Sticky, like the trailer sizes; the default tree (one chunk,
  /// one slot) reproduces the single-partial wire.
  void set_tree(const common::ReduceTree& tree) { tree_ = tree; }

  /// Lays out one round's message and returns slot 0's contiguous body
  /// span [gram | dots1 | dots2].  Invalidates spans from previous rounds.
  /// Zeroes the wire (foreign slots must contribute +0.0, and they hold
  /// the previous round's reduced values otherwise); the chunk scratch is
  /// the pack kernels' to overwrite.
  std::span<double> layout(std::size_t gram_words, std::size_t dots1_words,
                           std::size_t dots2_words);

  /// Post-reduce view of a section.  Body and objective sections serve
  /// slot 0, which holds the tree totals after reduce_wait; stop-flags and
  /// checksum are the wire's trailer words.
  std::span<double> section(RoundSection s) {
    const auto i = static_cast<std::size_t>(s);
    return buffer_.subspan(offset_[i], words_[i]);
  }
  std::span<const double> section(RoundSection s) const {
    const auto i = static_cast<std::size_t>(s);
    return std::span<const double>(buffer_).subspan(offset_[i], words_[i]);
  }
  std::size_t words(RoundSection s) const {
    return words_[static_cast<std::size_t>(s)];
  }
  std::size_t total_words() const { return buffer_.size(); }

  /// The whole packed buffer (the wire, then any chunk scratch).
  std::span<double> packed() { return buffer_; }

  /// Words between one chunk's (or slot's) body and the next one's.
  std::size_t chunk_stride() const { return chunk_stride_; }

  /// Body section `s` (kGram/kDots1/kDots2) of this rank's owned chunks,
  /// as one strided run: owned chunk c's section is
  /// [c·chunk_stride(), c·chunk_stride() + words(s)).  This is where the
  /// rank's chunk-major pack kernel (la::sampled_gram_chunks) writes its
  /// partials, before reduce_chunks(s).
  std::span<double> chunk_section(RoundSection s) {
    const auto i = static_cast<std::size_t>(s);
    return chunk_run(chunk_offset_[i], words_[i]);
  }

  /// The contiguous [dots1 | dots2] half of the owned chunks, as a strided
  /// run like chunk_section: the state-DEPENDENT sections the split pack
  /// path (la::sampled_dots_chunks) writes after the previous round's
  /// apply, while the Gram triangle may have been packed speculatively a
  /// round earlier.
  std::span<double> chunk_dots() {
    return chunk_run(chunk_offset_[1], words_[1] + words_[2]);
  }

  /// The owned chunks' objective partials (one run of objective words per
  /// owned chunk), before reduce_chunks(kObjective).
  std::span<double> objective_chunks() {
    const std::size_t nc = tree_.owned_chunks();
    const std::size_t base =
        direct() ? objective_ + tree_.first_slot() * trailer_objective_
                 : wire_words_ + nc * chunk_stride_;
    return buffer_.subspan(base, nc * trailer_objective_);
  }

  /// Sums section `s`'s owned chunk partials (kGram, kDots1, kDots2 or
  /// kObjective) over this rank's subtrees into its wire slots.  Call once
  /// per round and section, after the partials are written.
  void reduce_chunks(RoundSection s);

  /// Writes the kChecksum trailer word (when reserved): the low 32 bits
  /// of this rank's FNV-1a body digest as an exactly-representable
  /// double.  The summed word is the in-band checksum channel a real
  /// transport would carry — it rides the collective and is metered in
  /// the kChecksum section's words like any trailer word — while
  /// verification uses the communicator's out-of-band delivery digest
  /// (hashes do not commute with summation).  Call after the body and
  /// other trailer fields are final, before reduce_start.  No-op without
  /// the section.
  void seal();

  /// Starts the round's ONE collective (nonblocking) over the wire prefix
  /// and attributes per-section wire traffic to the communicator's
  /// CommStats.
  void reduce_start(Communicator& comm);

  /// Completes the collective; afterwards every wire slot holds the
  /// elementwise sum over ranks, and the top of the tree is evaluated into
  /// slot 0, which section() serves.  A positive `deadline_seconds` arms
  /// the communicator's timeout detection, and when the checksum trailer
  /// is reserved and the delivery digest enabled, the delivered wire is
  /// re-hashed against the communicator's receipt — CommFailure(kCorruption)
  /// before any reduced bit reaches the solver.
  void reduce_wait(Communicator& comm, double deadline_seconds = 0.0);

  /// Blocking convenience: start + wait.
  void reduce(Communicator& comm) {
    reduce_start(comm);
    reduce_wait(comm);
  }

 private:
  /// A rank that owns at most one chunk writes its partial straight into
  /// its one slot; otherwise the partials go to scratch past the wire.
  bool direct() const { return tree_.owned_chunks() <= 1; }

  std::span<double> chunk_run(std::size_t offset, std::size_t words) {
    const std::size_t nc = tree_.owned_chunks();
    if (nc == 0) return {};
    const std::size_t base =
        direct() ? tree_.first_slot() * chunk_stride_ : wire_words_;
    return buffer_.subspan(base + offset, (nc - 1) * chunk_stride_ + words);
  }

  la::Workspace& ws_;
  std::size_t slot_;
  common::ReduceTree tree_;
  std::span<double> buffer_;
  std::array<std::size_t, kRoundSectionCount> words_{};
  std::array<std::size_t, kRoundSectionCount> offset_{};
  std::array<std::size_t, 3> chunk_offset_{};  // body offsets within a chunk
  std::size_t chunk_stride_ = 0;  // gram + dots1 + dots2 words per chunk
  std::size_t objective_ = 0;     // wire offset of the objective block
  std::size_t wire_words_ = 0;    // what the collective carries
  std::size_t trailer_objective_ = 0;
  std::size_t trailer_flags_ = 0;
  std::size_t trailer_checksum_ = 0;
};

}  // namespace sa::dist
