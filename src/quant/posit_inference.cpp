#include "quant/posit_inference.hpp"

#include <algorithm>
#include <stdexcept>

#include "quant/engine_gemm.hpp"
#include "tensor/ops.hpp"

namespace pdnn::quant {

using posit::PositSpec;
using posit::Unpacked;
using tensor::Tensor;

namespace detail {

namespace {

/// Per-thread decode scratch. The calling thread's instance holds the
/// Unpacked activation lanes for the duration of one GEMM (when the mode
/// consumes them); each team thread's instance holds the single weight row it
/// is currently streaming. Grow-only and thread-local, so the steady-state
/// cost is bounded by the largest shapes this thread has seen.
struct DecodeScratch {
  std::vector<std::uint32_t> w_codes;
  std::vector<Unpacked> a_ops;
  std::vector<Unpacked> w_ops;
  std::vector<std::int32_t> w_fixed;  ///< fixed-point dot: the streamed weight row
};
thread_local DecodeScratch tl_scratch;

}  // namespace

FixedLut::FixedLut(const PositSpec& spec) {
  if (spec.n > 8 || !posit::fixed_dot_fits(spec, 1)) {
    throw std::invalid_argument("FixedLut: unsupported for " + spec.to_string());
  }
  for (std::uint32_t c = 0; c < spec.code_count(); ++c) value[c] = fixed_of(c, spec);
}

EngineLuts resolve_luts(const PositSpec& spec, AccumMode mode) {
  // The tables tabulate the *arithmetic* rounding of the engine
  // (nearest-even, the default of posit::add/mul/fma), which is independent
  // of the kEncodeRound float->posit encode constant.
  constexpr posit::RoundMode kArith = posit::RoundMode::kNearestEven;
  EngineLuts luts;
  if (posit::add_lut_supported(spec, kArith)) luts.add = &posit::add_lut(spec, kArith);
  if (mode == AccumMode::kSerial && posit::mul_lut_supported(spec, kArith)) {
    luts.mul = &posit::mul_lut(spec, kArith);
  }
  if (mode == AccumMode::kFma && posit::fma_lut_supported(spec, kArith)) {
    luts.fma = &posit::fma_lut(spec, kArith);
  }
  return luts;
}

void engine_gemm(const ActPanel& a, const EncodedTensor& w, const EncodedTensor& bias,
                 std::size_t rows, std::size_t k, std::size_t cols, AccumMode mode,
                 std::uint32_t* out, const OutLayout& layout, bool relu, const EngineLuts& luts,
                 posit::Quire* quire_pool) {
  const PositSpec spec = w.spec;
  const std::size_t tiles = (rows + kActTile - 1) / kActTile;
  // Which operand forms this (mode, luts) pairing reads: the LUT serial/fma
  // chains index the gathered codes, the fixed-point dot the caller's
  // fixed-point panel, everything else Unpacked lanes decoded here.
  const bool lut_serial = mode == AccumMode::kSerial && luts.mul != nullptr && luts.add != nullptr;
  const bool lut_fma = mode == AccumMode::kFma && luts.fma != nullptr;
  const bool fixed = uses_fixed_dot(mode, spec, k);
  const bool need_ops = !(lut_serial || lut_fma || fixed);
  // The Unpacked activation lanes are decoded once (kActTile-row slices, in
  // parallel) before the column loop; the buffer is sized before the team
  // starts — the region below only reads it through a raw pointer.
  DecodeScratch& host = tl_scratch;
  if (need_ops) host.a_ops.resize(rows * k);
  Unpacked* const a_ops_buf = need_ops ? host.a_ops.data() : nullptr;
  const std::uint32_t clamp = relu ? spec.sign_bit() : 0u;
#pragma omp parallel
  {
#ifdef _OPENMP
    const int tid = omp_get_thread_num();
#else
    const int tid = 0;
#endif
    posit::Quire* quire = mode == AccumMode::kQuire ? &quire_pool[tid] : nullptr;
    DecodeScratch& scratch = tl_scratch;
    scratch.w_codes.resize(k);
    if (need_ops || fixed) scratch.w_ops.resize(k);
    if (fixed) scratch.w_fixed.resize(k);
    if (need_ops) {
#pragma omp for schedule(static)
      for (std::size_t tile = 0; tile < tiles; ++tile) {
        const std::size_t r0 = tile * kActTile;
        const std::size_t r1 = std::min(rows, r0 + kActTile);
        posit::decode_unpacked(a.codes + r0 * k, (r1 - r0) * k, spec, a_ops_buf + r0 * k);
      }  // implicit barrier: every lane is decoded before any dot reads it
    }
#pragma omp for schedule(static)
    for (std::size_t o = 0; o < cols; ++o) {
      posit::unpack_codes(w.packed.data(), o * k, k, spec, scratch.w_codes.data());
      const std::uint32_t* wcodes = scratch.w_codes.data();
      const Unpacked* wrow = scratch.w_ops.data();
      const std::int32_t* wfixed = scratch.w_fixed.data();
      if (need_ops || fixed) posit::decode_unpacked(wcodes, k, spec, scratch.w_ops.data());
      const bool w_nar = fixed && posit::to_fixed(wrow, k, spec, scratch.w_fixed.data());
      const std::uint32_t bcode =
          !bias.empty() ? posit::unpack_one(bias.packed.data(), o, bias.spec) : 0u;
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t off = r * k;
        std::uint32_t acc = 0;
        switch (mode) {
          case AccumMode::kQuire:
            if (fixed) {
              // A NaR lane poisons the dot exactly as it poisons the quire.
              acc = w_nar || a.nar[r] != 0 ? spec.nar_code()
                                            : posit::fixed_dot(a.fixed + off, wfixed, k, spec);
            } else {
              quire->clear();
              quire->accumulate_dot(a_ops_buf + off, wrow, k);
              acc = quire->to_posit();
            }
            break;
          case AccumMode::kSerial:
            if (lut_serial) {
              // Two table reads per term: the multiply and the accumulator
              // add both come out of L2-resident LUTs.
              const std::uint32_t* acodes = a.codes + off;
              for (std::size_t i = 0; i < k; ++i) {
                acc = luts.add->at(acc, luts.mul->at(acodes[i], wcodes[i]));
              }
            } else {
              for (std::size_t i = 0; i < k; ++i) {
                acc = posit::add(acc, posit::mul(a_ops_buf[off + i], wrow[i], spec), spec);
              }
            }
            break;
          case AccumMode::kFma:
            if (lut_fma) {
              const std::uint32_t* acodes = a.codes + off;
              for (std::size_t i = 0; i < k; ++i) acc = luts.fma->at(acodes[i], wcodes[i], acc);
            } else {
              for (std::size_t i = 0; i < k; ++i) {
                acc = posit::fma(a_ops_buf[off + i], wrow[i], acc, spec);
              }
            }
            break;
        }
        if (!bias.empty()) {
          acc = luts.add != nullptr ? luts.add->at(acc, bcode) : posit::add(acc, bcode, spec);
        }
        if ((acc & clamp) != 0) acc = 0;
        out[(r / layout.group) * layout.group_stride + (r % layout.group) * layout.row_stride +
            o * layout.col_stride] = acc;
      }
    }
  }
}

}  // namespace detail

namespace {

// ---------------------------------------------------------------------------
// Retained scalar reference path (pre-engine implementation, verbatim
// semantics): coded operands, a full decode per multiply-accumulate, weights
// re-encoded from float on every call.
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> encode_tensor(const Tensor& t, const PositSpec& spec) {
  std::vector<std::uint32_t> codes(t.numel());
  for (std::size_t i = 0; i < t.numel(); ++i) {
    codes[i] = posit::from_double(t[i], spec, kEncodeRound);
  }
  return codes;
}

/// Dot product of two code vectors under the selected accumulation mode.
std::uint32_t dot(const std::uint32_t* a, const std::uint32_t* b, std::size_t count,
                  const PositSpec& spec, AccumMode mode, posit::Quire* quire) {
  switch (mode) {
    case AccumMode::kQuire: {
      quire->clear();
      for (std::size_t i = 0; i < count; ++i) quire->add_product(a[i], b[i]);
      return quire->to_posit();
    }
    case AccumMode::kSerial: {
      std::uint32_t acc = 0;
      for (std::size_t i = 0; i < count; ++i) {
        acc = posit::add(acc, posit::mul(a[i], b[i], spec), spec);
      }
      return acc;
    }
    case AccumMode::kFma: {
      std::uint32_t acc = 0;
      for (std::size_t i = 0; i < count; ++i) acc = posit::fma(a[i], b[i], acc, spec);
      return acc;
    }
  }
  return 0;
}

}  // namespace

EncodedTensor encode_pack(const Tensor& t, const PositSpec& spec) {
  EncodedTensor e;
  e.spec = spec;
  e.shape = t.shape();
  e.count = t.numel();
  // Parallel encode, serial bit-pack: pack_codes RMWs 64-bit windows that
  // straddle neighbor ranges, so the pack must not be split across threads.
  std::vector<std::uint32_t> codes(e.count);
#pragma omp parallel for schedule(static) if (e.count > 4096)
  for (std::size_t i = 0; i < e.count; ++i) {
    codes[i] = posit::from_double(t[i], spec, kEncodeRound);
  }
  e.packed.assign(posit::packed_capacity(e.count, spec), 0u);
  posit::pack_codes(codes.data(), 0, e.count, spec, e.packed.data());
  return e;
}

// ---------------------------------------------------------------------------
// Reference path
// ---------------------------------------------------------------------------

Tensor posit_linear_reference(const Tensor& x, const Tensor& w, const Tensor& bias,
                              const PositSpec& spec, AccumMode mode) {
  const std::size_t n = x.shape()[0], in = x.shape()[1], out = w.shape()[0];
  if (w.shape()[1] != in) throw std::invalid_argument("posit_linear: shape mismatch");
  const auto xc = encode_tensor(x, spec);
  const auto wc = encode_tensor(w, spec);
  const auto bc = bias.numel() > 0 ? encode_tensor(bias, spec) : std::vector<std::uint32_t>();
  posit::Quire quire(spec);

  Tensor y({n, out});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o = 0; o < out; ++o) {
      std::uint32_t acc = dot(xc.data() + i * in, wc.data() + o * in, in, spec, mode, &quire);
      if (!bc.empty()) acc = posit::add(acc, bc[o], spec);
      y.at(i, o) = static_cast<float>(posit::to_double(acc, spec));
    }
  }
  return y;
}

Tensor posit_conv2d_reference(const Tensor& x, const Tensor& w, const Tensor& bias,
                              const tensor::Conv2dGeom& geom, const PositSpec& spec, AccumMode mode) {
  geom.validate();
  const std::size_t batch = x.shape()[0];
  const std::size_t oh = geom.out_h(), ow = geom.out_w();
  const std::size_t patch = geom.patch();
  const auto wc = encode_tensor(w, spec);
  const auto bc = bias.numel() > 0 ? encode_tensor(bias, spec) : std::vector<std::uint32_t>();
  posit::Quire quire(spec);

  Tensor out({batch, geom.out_c, oh, ow});
  Tensor cols({patch, oh * ow});
  for (std::size_t nidx = 0; nidx < batch; ++nidx) {
    tensor::im2col(x.data() + nidx * geom.in_c * geom.in_h * geom.in_w, geom, cols.data());
    // Encode the unfolded image, transposed so each output pixel's patch is
    // contiguous.
    std::vector<std::uint32_t> cc(patch * oh * ow);
    for (std::size_t p = 0; p < patch; ++p) {
      for (std::size_t t = 0; t < oh * ow; ++t) {
        cc[t * patch + p] = posit::from_double(cols[p * (oh * ow) + t], spec, kEncodeRound);
      }
    }
    for (std::size_t o = 0; o < geom.out_c; ++o) {
      for (std::size_t t = 0; t < oh * ow; ++t) {
        std::uint32_t acc = dot(cc.data() + t * patch, wc.data() + o * patch, patch, spec, mode, &quire);
        if (!bc.empty()) acc = posit::add(acc, bc[o], spec);
        out[((nidx * geom.out_c + o) * oh * ow) + t] = static_cast<float>(posit::to_double(acc, spec));
      }
    }
  }
  return out;
}

}  // namespace pdnn::quant
