// engine_gemm.hpp — internal code-in, code-out GEMM behind the compiled
// PositSession's linear and conv steps. Not part of the public API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "exec/thread_budget.hpp"  // also omp.h, for omp_get_thread_num()
#include "posit/add_lut.hpp"
#include "posit/mul_lut.hpp"
#include "posit/quire.hpp"
#include "posit/unpacked.hpp"
#include "quant/posit_inference.hpp"

namespace pdnn::quant::detail {

/// The tabulated kernels a (spec, mode) pair can dispatch onto (n <= 8
/// formats; all pointers null otherwise). `mul`+`add` drive serial
/// accumulation, `fma` the fma chain, and `add` alone every bias add in any
/// mode. Results are bit-identical to the arithmetic routines by
/// construction.
struct EngineLuts {
  const posit::MulLut* mul = nullptr;
  const posit::AddLut* add = nullptr;
  const posit::FmaLut* fma = nullptr;
};

/// Resolve the tables once per compile (takes the process-wide LUT
/// cache lock; never call on the per-row hot path).
EngineLuts resolve_luts(const posit::PositSpec& spec, AccumMode mode);

/// True when engine_gemm runs the exact int64 fixed-point dot for this
/// (mode, spec, k) — kQuire with posit::fixed_dot_fits(spec, k) — so its
/// activation operand is the ActPanel's fixed-point panel, not its codes.
inline bool uses_fixed_dot(AccumMode mode, const posit::PositSpec& spec, std::size_t k) {
  return mode == AccumMode::kQuire && posit::fixed_dot_fits(spec, k);
}

/// fixed_of()'s NaR marker. Fixed-dot operands satisfy |v| <= 2^30, so it
/// never collides with a value.
constexpr std::int32_t kFixedNar = std::numeric_limits<std::int32_t>::min();

/// One code as a fixed-dot operand: its int32 multiple of 2^min_scale (0 for
/// zero — posit::to_fixed's lane), or kFixedNar for NaR.
inline std::int32_t fixed_of(std::uint32_t code, const posit::PositSpec& spec) {
  const posit::Unpacked u = posit::decode_unpacked(code, spec);
  std::int32_t v = 0;
  return posit::to_fixed(&u, 1, spec, &v) ? kFixedNar : v;
}

/// fixed_of() for every code of an n <= 8 format: converting a code is then
/// one table read.
struct FixedLut {
  std::int32_t value[256] = {};
  explicit FixedLut(const posit::PositSpec& spec);
};

/// The GEMM's activation operand: `rows` rows of k values in the weight
/// panel's spec, gathered by the caller (PositSession gathers codes straight
/// from its code arena with the im2col index map). A uses_fixed_dot() GEMM
/// reads `fixed` (int32 operands as fixed_of() gives them, with each NaR
/// lane zeroed) and `nar` (one flag per row, set when the row held a NaR);
/// every other GEMM reads `codes`.
struct ActPanel {
  const std::uint32_t* codes = nullptr;
  const std::int32_t* fixed = nullptr;
  const std::uint8_t* nar = nullptr;
};

/// Where output (r, o) lands:
/// out[(r / group) * group_stride + (r % group) * row_stride + o * col_stride].
/// A linear layer is one group of rows; a batched conv is one group of
/// output pixels per image.
struct OutLayout {
  std::size_t group = 1;
  std::size_t group_stride = 0;
  std::size_t row_stride = 0;
  std::size_t col_stride = 0;
};

/// The GEMM at the heart of the engine. `a` holds `rows` gathered operand
/// rows of length k; `w` holds `cols` bit-packed weight rows of length k
/// (resident panels stay packed at format width). The rounded dot of every
/// pair — plus the optional per-column bias, then, with `relu`, a clamp that
/// turns every code with the sign bit set (negative or NaR) into zero — lands
/// as a code of w.spec at the OutLayout position. Each weight row is unpacked
/// and decoded (SIMD group decode, posit/simd.hpp) exactly once per call into
/// its streaming thread's O(k) scratch; when the accumulator reads Unpacked
/// lanes, the activation codes are decoded once too, in kActTile-row slices
/// across the team, into the calling thread's scratch.
///
/// Which accumulator runs, by mode, format and dot length k alone:
///   * uses_fixed_dot(mode, spec, k) — exact int64 fixed-point dot
///     (posit/quire.hpp) over the caller's fixed-point panel and each weight
///     row converted once per call; the dot sums the products in int64 and
///     rounds once. The bound k * 2^(2(max_scale - min_scale)) < 2^63 keeps
///     every partial sum exact: posit(8,1) qualifies up to k < 2^15 and
///     posit(8,0) up to k < 2^39. A row holding a NaR yields NaR, as the
///     quire would.
///   * kQuire otherwise (posit(8,2), (16,1), ... or k past the bound) — the
///     general quire, one per thread. It stays the oracle: both routes
///     produce the exact sum rounded once, hence the same code.
///   * kSerial / kFma — rounded chains, from the n <= 8 tables over the
///     gathered codes when the format has them, else the Unpacked arithmetic.
///
/// Threading is over output columns with one quire per thread. Each output
/// is accumulated start-to-finish by a single thread in ascending-k order —
/// exactly the reference order — so results are bit-identical to the scalar
/// reference and to any other thread count, for every AccumMode (the
/// fixed-point dot is exact, so its summation order cannot matter).
///
/// `quire_pool` must hold at least exec::omp_max_threads() quires of `w.spec` when
/// mode == kQuire (the session's pre-planned per-thread arenas). Ignored for
/// the other modes.
void engine_gemm(const ActPanel& a, const EncodedTensor& w, const EncodedTensor& bias,
                 std::size_t rows, std::size_t k, std::size_t cols, AccumMode mode,
                 std::uint32_t* out, const OutLayout& layout, bool relu, const EngineLuts& luts,
                 posit::Quire* quire_pool);

}  // namespace pdnn::quant::detail
