#include "posit/handoff_lut.hpp"

#include <stdexcept>

#include "posit/lut_cache.hpp"

namespace pdnn::posit {

HandoffLut::HandoffLut(const PositSpec& from, const PositSpec& to, RoundMode mode) {
  if (!handoff_lut_supported(from, mode)) {
    throw std::invalid_argument("HandoffLut: unsupported for " + from.to_string());
  }
  to.validate();
  table_.resize(static_cast<std::size_t>(from.code_count()));
  for (std::uint32_t c = 0; c < table_.size(); ++c) {
    table_[c] = handoff(c, from, to, mode);
    identity_ = identity_ && table_[c] == c;
  }
}

bool handoff_lut_supported(const PositSpec& from, RoundMode mode) {
  return from.n <= 16 && mode != RoundMode::kStochastic;
}

const HandoffLut& handoff_lut(const PositSpec& from, const PositSpec& to, RoundMode mode) {
  // Resolved at compile time, never per element; see lut_cache.hpp.
  static detail::PairLutCache<HandoffLut> cache;
  return cache.get(from, to, mode);
}

}  // namespace pdnn::posit
