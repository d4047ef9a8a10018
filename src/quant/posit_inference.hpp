// posit_inference.hpp — TRUE posit-arithmetic inference engine.
//
// The training stack simulates posit numerics in FP32 (as the paper's PyTorch
// implementation does): tensors are snapped onto the posit grid but the
// multiply-accumulates still run in FP32. This module closes the loop by
// executing the forward pass with genuine posit arithmetic — every operand is
// an (n, es) code and every sum is accumulated either
//   * kQuire  — exactly, in a quire, one rounding per dot product
//               (Deep Positron's EMAC, referenced by the paper), or
//   * kSerial — with a rounded posit add per term (a plain posit ALU), or
//   * kFma    — with a fused multiply-add chain (one rounding per term,
//               the behavior of the paper's Fig. 4 MAC pipeline).
//
// Weight panels are stored bit-packed at format width (EncodedTensor) and
// decoded once per GEMM, each row into O(k) per-thread scratch as the column
// loop streams it, through the SIMD batch-of-8 decoder (posit/simd.hpp).
// Activations arrive as unpacked code panels gathered by the session (or,
// for the exact int64 dot, as int32 fixed-point panels). The hot loops run
// per-thread quires or the int64 dot OpenMP-distributed over output columns;
// n <= 8 formats dispatch at runtime onto tabulated kernels (MulLut/AddLut
// for the serial chain and every bias add, the pair-classed FmaLut for the
// fma chain). Results are bit-identical to the retained scalar reference
// path (posit_linear_reference / posit_conv2d_reference) at every spec and
// accumulation mode, to single-threaded runs at any thread count, and to
// the scalar decode path (PDNN_NO_AVX2=1).
//
// This header holds the engine's shared vocabulary (AccumMode, the encode
// rounding, the packed EncodedTensor panel) and the scalar reference
// oracles. The one way to run posit inference is quant::PositSession
// (posit_session.hpp), which compiles a module graph once — session-owned
// weight panels, code-resident activations, per-thread quire arenas,
// per-layer precision overrides — and runs allocation-free in steady state;
// a single layer is a one-layer Sequential.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layers.hpp"
#include "posit/packed.hpp"
#include "posit/quire.hpp"
#include "posit/unpacked.hpp"
#include "quant/policy.hpp"

namespace pdnn::quant {

enum class AccumMode {
  kQuire,   ///< exact accumulation, single final rounding
  kSerial,  ///< round after every add
  kFma,     ///< fused multiply-add chain: round(a*b + acc) per term
};

/// The single rounding mode used for every float -> posit encode on the
/// inference path (weights, the network input, format hand-offs, BN
/// constants).
constexpr posit::RoundMode kEncodeRound = posit::RoundMode::kNearestEven;

/// Activation rows (or output pixels) per work item of the engine GEMM's
/// decode phase: when the accumulator reads Unpacked lanes, the activation
/// code panel is decoded in slices of this many rows, team-parallel, before
/// the column loop runs.
constexpr std::size_t kActTile = 16;

/// Compressed operand panel: a tensor's n-bit posit codes bit-packed at
/// format width (posit/packed.hpp block codec) — ⌈n/8⌉ bytes per value, the
/// paper's model-size story as the engine's resident weight layout. The GEMM
/// inner loops never touch this form directly: engine_gemm decodes each
/// packed value exactly once per call into transient scratch (SIMD
/// batch-of-8 group decode, ragged tail scalar), so steady-state panel
/// memory is the packed payload alone.
struct EncodedTensor {
  posit::PositSpec spec{8, 1};
  tensor::Shape shape;
  std::vector<std::uint8_t> packed;  ///< posit::packed_capacity(count, spec) bytes
  std::size_t count = 0;

  std::size_t numel() const { return count; }
  bool empty() const { return count == 0; }
  /// Payload bytes of the packed codes (the footprint number; slack excluded).
  std::size_t payload_bytes() const { return posit::packed_bytes(count, spec); }
};

/// Encode (under kEncodeRound) and bit-pack a whole tensor in one pass.
EncodedTensor encode_pack(const tensor::Tensor& t, const posit::PositSpec& spec);

// ---------------------------------------------------------------------------
// Retained scalar reference path (the pre-engine implementation): coded
// operands, full decode per multiply-accumulate, weights re-encoded on every
// call, serial triple loop. This is the bit-exactness oracle for
// quant.posit_engine and the baseline bench_posit measures speedups against.
// Degenerate conv geometry throws std::invalid_argument
// (tensor::Conv2dGeom::validate).
// ---------------------------------------------------------------------------

tensor::Tensor posit_linear_reference(const tensor::Tensor& x, const tensor::Tensor& w,
                                      const tensor::Tensor& bias, const posit::PositSpec& spec,
                                      AccumMode mode);

tensor::Tensor posit_conv2d_reference(const tensor::Tensor& x, const tensor::Tensor& w,
                                      const tensor::Tensor& bias, const tensor::Conv2dGeom& geom,
                                      const posit::PositSpec& spec, AccumMode mode);

}  // namespace pdnn::quant
