// posit_session.hpp — compiled whole-network posit inference.
//
// Production serving separates *compile* from *run* (cf. marian-dev's
// compiled expression graphs): walk the model once, bind every weight, plan
// every buffer — then make the hot loop do nothing but arithmetic.
// PositSession is the true-posit Backend over the shared exec layer:
//
//   * compile() lowers the module graph through exec::GraphBuilder into the
//     backend-neutral ExecPlan (Sequential nesting and ResidualBlock
//     skip-connections included — the residual join rounds the exact sum
//     of both branches once), lets exec::ArenaPlanner fold every
//     intermediate tensor onto lifetime-shared arena buffers, then resolves
//     each step's (PositSpec, AccumMode) from SessionConfig, pre-encodes
//     every weight/bias/BN constant into session-owned EncodedTensor panels,
//     resolves the n <= 8 LUT kernels and the format hand-off tables, and
//     plans per-thread quire arenas.
//   * run() executes the compiled plan. In steady state (shapes repeat, no
//     weight mutation) it performs no allocation and takes no lock: panels,
//     arenas, and scratch are reused; Param::version mismatches — an
//     optimizer step or checkpoint load that called Param::mark_updated() —
//     re-encode exactly the stale panels first.
//
// Activations are code-resident. Every posit step leaves its output in the
// arena as uint32_t posit codes of its own spec; a slot holds floats only
// when it is the network input or a spec-less ReLU/MaxPool of it (decided at
// compile time). Floats cross the boundary exactly twice: each consumer of
// a float slot encodes it once per element in its own spec, and the output
// slot is decoded once. A consumer reads a producer code c of another spec
// as posit::handoff(c) = from_double(float(to_double(c))) — bit for bit a
// float hand-off between the two steps — from a process-wide table when
// the producer has n <= 16 (skipped when it is the identity), per element
// for posit(32,·). Conv and linear steps convert each input element once and
// gather operand rows with tensor::im2col's index map (padding is code 0) —
// for the exact int64 dot straight into int32 fixed point — and hand the
// unpacked panel to engine_gemm; weights stay packed. Eval BN on an n <= 8
// input is one table read per element: a per-channel table of every input
// code's output code, built across the team at the first run after its
// constants change. ReLU (and every fused ReLU epilogue) zeroes codes with
// the sign bit set — negative or NaR, as the float clamp zeroed NaN — and
// MaxPool takes the signed-integer max of codes, which skips NaR.
//
// exec::FloatBackend executes the identical plan in FP32 — the session is
// one of two pluggable backends over one lowering, not a parallel stack.
//
// Outputs are bit-identical to chaining the scalar reference layers
// (posit_linear_reference / posit_conv2d_reference, posit BN and join
// oracles) through float tensors at every spec, accumulation mode, and
// thread count. A single layer runs as a one-layer Sequential.
//
// Threading: GEMM steps split output columns (engine_gemm.hpp); the operand
// gather, input encode and format conversions split rows or elements. The
// elementwise posit steps — eval BN and the residual join — split their
// elements across the OpenMP team once a step holds more than 512 of them
// (BN over the collapsed (image, channel) slices, the join over elements).
// Each element is computed alone, so no split can change a bit. The join is
// posit::add in every mode — the exact sum of two posits rounded once,
// which is what a quire would give — read from the add table for n <= 8
// formats.
//
// BN constants (and tables) re-derive whenever gamma/beta versions or the
// BN's stats_version change — a training forward or a checkpoint load that
// only moves the running statistics is caught automatically. invalidate()
// remains for mutations that bypass every version (e.g. writing a tensor's
// storage directly).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "exec/backend.hpp"
#include "exec/plan.hpp"
#include "nn/layers.hpp"
#include "quant/posit_inference.hpp"

namespace pdnn::quant {

/// Per-layer override of the session defaults. Unset fields inherit.
struct LayerOverride {
  std::optional<posit::PositSpec> spec;
  std::optional<AccumMode> mode;
};

/// Format/accumulation plan for a session: one default (spec, mode) pair
/// plus overrides keyed by layer class or by exact layer name (name wins
/// over class, class over default) — genuine per-layer mixed precision.
/// Pooling layers resolve with LayerClass::kConv.
struct SessionConfig {
  posit::PositSpec spec{16, 1};
  AccumMode mode = AccumMode::kQuire;
  // Default member initializers let SessionConfig{spec, mode} leave both
  // maps empty without tripping -Wmissing-field-initializers.
  std::map<nn::LayerClass, LayerOverride> by_class{};
  std::map<std::string, LayerOverride> by_name{};

  /// The session equivalent of QuantConfig's per-class forward formats
  /// (conv/bn/linear), under one accumulation mode.
  static SessionConfig from_quant(const QuantConfig& cfg, AccumMode mode);

  posit::PositSpec spec_for(const std::string& name, nn::LayerClass cls) const;
  AccumMode mode_for(const std::string& name, nn::LayerClass cls) const;
};

class PositSession {
 public:
  /// Compile `net` (any Module: a Sequential, a ResidualBlock, or a single
  /// layer) against `cfg`. Throws std::invalid_argument on module types the
  /// engine cannot execute.
  ///
  /// The session binds (but does not own) the network's parameters: `net`
  /// must outlive every run() — the Param::version checks read through into
  /// the live module graph.
  static PositSession compile(nn::Module& net, const SessionConfig& cfg);

  /// Compile as an owning exec::Backend — the polymorphic form a
  /// serve::Engine worker pool consumes (each worker clone()s an
  /// independent set of panels, quire arenas, and scratch over the same
  /// module graph). Same contract as compile().
  static std::unique_ptr<exec::Backend> compile_backend(nn::Module& net,
                                                        const SessionConfig& cfg);

  PositSession(PositSession&&) noexcept;
  PositSession& operator=(PositSession&&) noexcept;
  ~PositSession();

  /// Eval-mode forward pass in true posit arithmetic. Returns a reference to
  /// the session-owned output buffer, valid until the next run() or the
  /// session's destruction; copy it to keep it. Batch size (and conv H/W)
  /// may vary between calls; steady state means repeated shapes.
  const tensor::Tensor& run(const tensor::Tensor& x);

  /// Force every panel and BN constant to re-encode on the next run()
  /// (needed only for mutations that bypass every version counter, e.g.
  /// writing a parameter's storage without Param::mark_updated()).
  void invalidate();

  const SessionConfig& config() const;
  /// The backend-neutral lowering this session executes (step table, slot
  /// wiring, arena buffers) — ExecPlan::dump() pretty-prints it.
  const exec::ExecPlan& plan() const;
  /// Bytes held by the slot arena — float and code buffers plus the decoded
  /// output (peak run shapes seen so far).
  std::size_t arena_bytes() const;
  /// Top-level compiled steps (a ResidualBlock is one step).
  std::size_t steps() const;
  /// Parameter tensors bound to session-owned panels.
  std::size_t bound_params() const;
  /// Panel/constant encode passes performed, compile included — the
  /// observable for compile-once/run-many and invalidation tests.
  std::uint64_t encode_count() const;
  /// Resident model footprint: packed weight/bias code payloads plus the
  /// encoded BN constant vectors — the bytes that scale with clone count and
  /// decide how many worker backends stay cache-resident. Run scratch is
  /// deliberately excluded; see panel_scratch_bytes().
  std::size_t panel_bytes() const;
  /// Steady-state run scratch the session owns (grow-only, sized by the
  /// largest batch seen): the code arena, the converted-once GEMM inputs and
  /// gathered operand panels, staged input encodes, conv index maps and BN
  /// tables. The engine's per-thread weight-row and Unpacked decode scratch
  /// is not counted.
  std::size_t panel_scratch_bytes() const;

 private:
  PositSession();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pdnn::quant
