// handoff_lut.hpp — converting posit codes between formats the way a float
// activation hand-off does.
//
// A mixed-precision network passes each layer's output to the next layer,
// which may run a different posit format (posit(8,1) conv -> posit(16,1) BN
// -> posit(8,1) conv). Historically that hand-off went through an FP32
// tensor: the producer decoded its code to float and the consumer encoded
// the float. handoff() is that rule on codes alone, so a code-resident
// pipeline keeps the float pipeline's bits for every pair of formats —
// including posit(32,·), whose values do not all fit a float.
//
// For producers with n <= 16 the whole code space is small, so the rule is
// a 2^n-entry table built once per (from, to, rounding mode) and shared
// process-wide.
#pragma once

#include <cstdint>
#include <vector>

#include "posit/codec.hpp"

namespace pdnn::posit {

/// from_double(float(to_double(c, from)), to, mode): the code a consumer in
/// `to` reads from a producer code `c` in `from`. NaR stays NaR.
inline std::uint32_t handoff(std::uint32_t c, const PositSpec& from, const PositSpec& to,
                             RoundMode mode) {
  return from_double(static_cast<float>(to_double(c, from)), to, mode);
}

/// handoff() for every code of `from`: entry [c] is handoff(c, from, to, mode).
class HandoffLut {
 public:
  HandoffLut(const PositSpec& from, const PositSpec& to, RoundMode mode);

  std::uint32_t at(std::uint32_t c) const { return table_[c]; }
  const std::uint32_t* data() const { return table_.data(); }
  /// True when every code maps to itself (from == to and every value of the
  /// format is exact in float), so readers may skip the table.
  bool identity() const { return identity_; }

 private:
  std::vector<std::uint32_t> table_;
  bool identity_ = true;
};

/// True when a table can serve producers of `from`: n <= 16 (at most 65536
/// entries) and a deterministic rounding mode.
bool handoff_lut_supported(const PositSpec& from, RoundMode mode);

/// Process-wide table cache (thread-safe; built on first use). Throws
/// std::invalid_argument when handoff_lut_supported() is false.
const HandoffLut& handoff_lut(const PositSpec& from, const PositSpec& to, RoundMode mode);

}  // namespace pdnn::posit
