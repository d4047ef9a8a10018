// engine_gemm.hpp — internal decode-once GEMM behind the compiled
// PositSession's linear and conv steps. Not part of the public API.
#pragma once

#include <cstddef>

#include "exec/thread_budget.hpp"  // also omp.h, for omp_get_thread_num()
#include "posit/add_lut.hpp"
#include "posit/mul_lut.hpp"
#include "posit/quire.hpp"
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

/// The block-decode GEMM at the heart of the engine. `a` holds `rows`
/// contiguous bit-packed operand rows of length k (activation panel), `w`
/// holds `cols` packed rows of length k (weight panel); the rounded dot of
/// every pair — plus optional per-column bias — lands at
/// out[r * row_stride + o * col_stride]. Panels stay packed at format width
/// and every packed value is decoded exactly once per call (SIMD group
/// decode, posit/simd.hpp): the activation panel into the calling thread's
/// scratch first (kActTile-row slices, team-parallel), then each weight row
/// into its streaming thread's O(k) scratch as the column loop reaches it.
/// Resident panel memory is the packed payload; the decoded activation panel
/// is per-call working scratch.
///
/// Which accumulator runs, by mode, format and dot length k alone:
///   * kQuire, posit::fixed_dot_fits(spec, k) — exact int64 fixed-point dot
///     (posit/quire.hpp). Both panels are converted once per call to int32
///     multiples of 2^min_scale; the dot sums the products in int64 and
///     rounds once. The bound k * 2^(2(max_scale - min_scale)) < 2^63 keeps
///     every partial sum exact: posit(8,1) qualifies up to k < 2^15 and
///     posit(8,0) up to k < 2^39. A row holding a NaR yields NaR, as the
///     quire would.
///   * kQuire otherwise (posit(8,2), (16,1), ... or k past the bound) — the
///     general quire, one per thread. It stays the oracle: both routes
///     produce the exact sum rounded once, hence the same code.
///   * kSerial / kFma — rounded chains, from the n <= 8 tables when the
///     format has them, else the Unpacked arithmetic.
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
void engine_gemm(const EncodedTensor& a, const EncodedTensor& w, const EncodedTensor& bias,
                 std::size_t rows, std::size_t k, std::size_t cols, AccumMode mode, float* out,
                 std::size_t row_stride, std::size_t col_stride, const EngineLuts& luts,
                 posit::Quire* quire_pool);

/// Encode the im2col panel `cols` ([patch, pixels]) transposed into `panel`
/// so each output pixel's patch is contiguous, reusing the panel's storage.
void encode_conv_panel(const float* cols, std::size_t patch, std::size_t pixels,
                       const posit::PositSpec& spec, EncodedTensor& panel);

/// Bytes of the calling thread's block-decode + encode scratch (capacity,
/// grow-only). Scratch, not model footprint: PositSession::panel_bytes()
/// deliberately excludes it.
std::size_t engine_scratch_bytes();

}  // namespace pdnn::quant::detail
