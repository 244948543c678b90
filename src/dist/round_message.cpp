#include "dist/round_message.hpp"

#include <sstream>

#include "common/check.hpp"
#include "la/vector_ops.hpp"

namespace sa::dist {

std::span<double> RoundMessage::layout(std::size_t gram_words,
                                       std::size_t dots1_words,
                                       std::size_t dots2_words) {
  words_ = {gram_words, dots1_words, dots2_words, trailer_objective_,
            trailer_flags_, trailer_checksum_};
  chunk_offset_ = {0, gram_words, gram_words + dots1_words};
  chunk_stride_ = gram_words + dots1_words + dots2_words;
  // Wire: S slot bodies, the S-slot objective block, then the scalar
  // trailer words.  Body and objective sections read slot 0.
  const std::size_t slots = tree_.num_slots();
  objective_ = slots * chunk_stride_;
  const std::size_t flags = objective_ + slots * trailer_objective_;
  wire_words_ = flags + trailer_flags_ + trailer_checksum_;
  offset_ = {0, gram_words, gram_words + dots1_words, objective_, flags,
             flags + trailer_flags_};
  const std::size_t scratch =
      direct() ? 0
               : tree_.owned_chunks() * (chunk_stride_ + trailer_objective_);
  buffer_ = ws_.doubles(slot_, wire_words_ + scratch);
  la::fill(buffer_.first(wire_words_), 0.0);
  return buffer_.first(chunk_stride_);
}

void RoundMessage::reduce_chunks(RoundSection s) {
  if (direct()) return;  // the kernels wrote the one own slot
  const auto i = static_cast<std::size_t>(s);
  const std::span<double> wire = buffer_.first(wire_words_);
  const std::span<double> scratch = buffer_.subspan(wire_words_);
  if (s == RoundSection::kObjective) {
    const std::size_t nc = tree_.owned_chunks();
    tree_.reduce_owned(scratch.subspan(nc * chunk_stride_),
                       wire.subspan(objective_), trailer_objective_, 0,
                       trailer_objective_);
    return;
  }
  SA_CHECK(i < chunk_offset_.size(),
           "RoundMessage::reduce_chunks: not a chunked section");
  tree_.reduce_owned(scratch, wire, chunk_stride_, chunk_offset_[i],
                     words_[i]);
}

void RoundMessage::seal() {
  if (trailer_checksum_ == 0) return;
  const std::uint64_t digest =
      payload_digest(buffer_.first(tree_.num_slots() * chunk_stride_));
  section(RoundSection::kChecksum)[0] =
      static_cast<double>(digest & 0xffffffffull);
}

void RoundMessage::reduce_start(Communicator& comm) {
  comm.allreduce_start(buffer_.first(wire_words_));
  // Metering reports WIRE words: body and objective sections cost one
  // run per tree slot.
  for (std::size_t i = 0; i < kRoundSectionCount; ++i) {
    const std::size_t factor = i <= 3 ? tree_.num_slots() : 1;
    comm.note_section(static_cast<RoundSection>(i), factor * words_[i]);
  }
}

void RoundMessage::reduce_wait(Communicator& comm, double deadline_seconds) {
  comm.allreduce_wait(deadline_seconds);
  if (trailer_checksum_ != 0 && comm.reduce_digest_enabled()) {
    // Re-hash the delivered wire against the communicator's delivery
    // receipt: any bit that changed between the backend handing the sums
    // back and this message consuming them is caught HERE, before
    // apply_round touches solver state.
    const std::uint64_t receipt = comm.last_reduce_digest();
    const std::uint64_t delivered = payload_digest(buffer_.first(wire_words_));
    if (receipt != delivered) {
      // sa-lint: allow(alloc): corruption error path, formats then throws
      std::ostringstream os;
      os << "RoundMessage::reduce_wait: reduced payload of " << wire_words_
         << " words failed checksum validation (delivery "
         << "digest " << receipt << ", buffer digest " << delivered << ")";
      throw CommFailure(FailureKind::kCorruption, os.str());
    }
  }
  // Top of the tree into slot 0, from the summed slots.  The order
  // depends only on the tree, never on the rank count.
  const std::size_t objective_words = tree_.num_slots() * trailer_objective_;
  tree_.fold(buffer_.first(objective_), chunk_stride_, 0, chunk_stride_);
  tree_.fold(buffer_.subspan(objective_, objective_words), trailer_objective_,
             0, trailer_objective_);
}

}  // namespace sa::dist
