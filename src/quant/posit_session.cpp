#include "quant/posit_session.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/backend.hpp"
#include "exec/graph_builder.hpp"
#include "exec/kernels.hpp"
#include "posit/handoff_lut.hpp"
#include "quant/engine_gemm.hpp"
#include "tensor/arena.hpp"
#include "tensor/ops.hpp"

namespace pdnn::quant {

using posit::PositSpec;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// SessionConfig
// ---------------------------------------------------------------------------

SessionConfig SessionConfig::from_quant(const QuantConfig& cfg, AccumMode mode) {
  SessionConfig c;
  c.spec = cfg.conv.forward;
  c.mode = mode;
  c.by_class[nn::LayerClass::kConv] = {cfg.conv.forward, {}};
  c.by_class[nn::LayerClass::kBn] = {cfg.bn.forward, {}};
  c.by_class[nn::LayerClass::kLinear] = {cfg.linear.forward, {}};
  return c;
}

PositSpec SessionConfig::spec_for(const std::string& name, nn::LayerClass cls) const {
  const auto by_n = by_name.find(name);
  if (by_n != by_name.end() && by_n->second.spec.has_value()) return *by_n->second.spec;
  const auto by_c = by_class.find(cls);
  if (by_c != by_class.end() && by_c->second.spec.has_value()) return *by_c->second.spec;
  return spec;
}

AccumMode SessionConfig::mode_for(const std::string& name, nn::LayerClass cls) const {
  const auto by_n = by_name.find(name);
  if (by_n != by_name.end() && by_n->second.mode.has_value()) return *by_n->second.mode;
  const auto by_c = by_class.find(cls);
  if (by_c != by_class.end() && by_c->second.mode.has_value()) return *by_c->second.mode;
  return mode;
}

// ---------------------------------------------------------------------------
// Per-step backend state over the shared ExecPlan
// ---------------------------------------------------------------------------

namespace {

/// A parameter tensor bound to a session-owned encoded panel. `version`
/// mirrors Param::version at encode time; a mismatch at run() re-encodes.
struct Binding {
  nn::Param* param = nullptr;
  std::uint64_t version = 0;
  EncodedTensor panel;
};

/// Elementwise posit steps (BN, residual join, input staging) go
/// team-parallel above this many elements. One posit element costs far more
/// than a float element, so the team pays for itself well below the float
/// kernels' thresholds. The work is elementwise, so the split cannot change
/// a bit.
constexpr std::size_t kPositParallelMin = 512;

/// What a slot holds, fixed at compile time: floats (the network input, and
/// whatever a spec-less ReLU/MaxPool derives from it) or posit codes of one
/// spec (every other step's output).
struct SlotKind {
  bool codes = false;
  PositSpec spec{16, 1};
};

/// How a step reads one input slot in its own spec, resolved at compile time.
/// Every route yields posit::handoff(c, from, to) — the code a float
/// hand-off between the two steps produces — so the choice cannot change a
/// bit.
struct Input {
  enum class Read {
    kCodes,  ///< producer codes already are the step's codes (identity hand-off)
    kTable,  ///< producer codes (n <= 16) through the process-wide hand-off table
    kStage,  ///< converted once per element into `staged` at every run: the
             ///< float network input, or a posit(n > 16) producer
  };
  Read read = Read::kCodes;
  SlotKind from;
  const std::uint32_t* table = nullptr;  ///< kTable: posit::HandoffLut::data()
  std::vector<std::uint32_t> staged;     ///< kStage scratch (grow-only)
};

/// An input as the kernels read it: at(i) is a code of the consuming step's
/// spec — table[codes[i]], or codes[i] when there is no table. `spec` is the
/// format of `codes` itself, the index space of per-code tables.
struct Operand {
  const std::uint32_t* codes = nullptr;
  const std::uint32_t* table = nullptr;
  PositSpec spec{16, 1};
  std::uint32_t at(std::size_t i) const { return table != nullptr ? table[codes[i]] : codes[i]; }
};

/// The input elements a step reads, each converted once per run: all
/// `total` of them, or — for a strided conv whose gather map skips some —
/// only the `touched` offsets within each `image`-sized slice.
struct Reads {
  std::size_t total = 0;
  const std::vector<std::int32_t>* touched = nullptr;
  std::size_t image = 1;
};

/// f(i) for every element i of `reads`, split across the team.
template <typename F>
void for_each_read(const Reads& reads, F f) {
  if (reads.touched == nullptr) {
#pragma omp parallel for schedule(static) if (reads.total > kPositParallelMin)
    for (std::size_t i = 0; i < reads.total; ++i) f(i);
    return;
  }
  const std::size_t images = reads.total / reads.image, per = reads.touched->size();
  const std::int32_t* offsets = reads.touched->data();
#pragma omp parallel for schedule(static) collapse(2) if (images * per > kPositParallelMin)
  for (std::size_t b = 0; b < images; ++b) {
    for (std::size_t j = 0; j < per; ++j) f(b * reads.image + static_cast<std::size_t>(offsets[j]));
  }
}

/// The posit-side state attached to one plan step: resolved format and
/// accumulation mode, LUT kernels, quire-arena index, input routes, encoded
/// weight panels, BN constants and tables, and the conv gather map.
struct StepState {
  PositSpec spec{16, 1};
  AccumMode mode = AccumMode::kQuire;
  detail::EngineLuts luts;
  int arena = -1;  ///< per-thread quire pool index (kQuire GEMMs, GAP)
  Input in[2];     ///< in0, and the skip operand of a join

  Binding weight, bias;  // bias.param == nullptr -> no bias (panel stays empty)
  /// GEMMs on the fixed-point dot with an n <= 8 spec: code -> int32 operand.
  std::optional<detail::FixedLut> fixed_lut;
  /// Conv: the im2col index map for input planes of map_h x map_w — entry
  /// [pixel * patch + p] is the offset of that patch element in one input
  /// image, -1 for padding.
  std::vector<std::int32_t> gather_map;
  /// The offsets the map reads when it skips some (stride > kernel), sorted;
  /// empty when it reads the whole image.
  std::vector<std::int32_t> touched;
  std::size_t map_h = 0, map_w = 0;

  // bn: constants derived from (gamma, beta, running stats) at encode time
  std::uint64_t gamma_version = 0, beta_version = 0, stats_version = 0;
  std::vector<std::uint32_t> bn_scale, bn_mean, bn_shift;
  /// BN on an n <= 8 input: the output code of every input code, per
  /// channel ([channel << n | code]), fused ReLU included. Rebuilt across
  /// the team at the first run after the constants change.
  bool bn_tabulated = false;
  bool bn_table_stale = true;
  std::vector<std::uint32_t> bn_table;
};

/// Sign-extended n-bit code: posits order like two's-complement integers,
/// NaR lowest.
inline std::int32_t code_order(std::uint32_t code, int shift) {
  return static_cast<std::int32_t>(code << shift) >> shift;
}

}  // namespace

struct PositSession::Impl final : exec::Backend {
  SessionConfig cfg;
  nn::Module* net = nullptr;  // not owned; clone() recompiles from it
  exec::ExecPlan eplan;
  std::vector<StepState> state;  // parallel to eplan.steps

  // Slots, each bound to its ArenaPlanner buffer in the store its kind uses.
  std::vector<SlotKind> kinds;          // per slot
  std::vector<tensor::Shape> shapes;    // per slot, as of this run
  tensor::TensorArena floats;           // float slots
  std::vector<std::vector<std::uint32_t>> codes;  // code slots (grow-only)
  Tensor output;                        // the decoded output slot
  /// The output slot is a MaxPool over codes: an all-NaR window decodes to
  /// -inf, the float kernel's seed, instead of NaN.
  bool output_nar_is_neg_inf = false;

  // GEMM operands shared by every step (grow-only): the input converted
  // once per element, then the gathered panel.
  std::vector<std::uint32_t> once_codes, panel_codes;
  std::vector<std::int32_t> once_fixed, panel_fixed;
  std::vector<std::uint8_t> panel_nar;

  struct Arena {
    PositSpec spec{16, 1};
    std::vector<posit::Quire> quires;  // one per OpenMP thread
  };
  std::vector<Arena> arenas;

  std::uint64_t encodes = 0;
  std::size_t bound = 0;
  bool force_refresh = false;

  const exec::ExecPlan& plan() const override { return eplan; }
  std::size_t arena_bytes() const override {
    return floats.bytes() + code_arena_bytes() + output.capacity() * sizeof(float);
  }
  std::unique_ptr<exec::Backend> clone() const override {
    return PositSession::compile_backend(*net, cfg);
  }

  std::size_t code_arena_bytes() const {
    std::size_t bytes = 0;
    for (const auto& buf : codes) bytes += buf.capacity() * sizeof(std::uint32_t);
    return bytes;
  }

  int arena_for(const PositSpec& spec) {
    for (std::size_t i = 0; i < arenas.size(); ++i) {
      if (arenas[i].spec == spec) return static_cast<int>(i);
    }
    arenas.push_back({spec, {}});
    return static_cast<int>(arenas.size() - 1);
  }

  void ensure_arena_threads() {
    const std::size_t threads = static_cast<std::size_t>(exec::omp_max_threads());
    for (Arena& a : arenas) {
      while (a.quires.size() < threads) a.quires.emplace_back(a.spec);
    }
  }

  posit::Quire* pool(const StepState& s) {
    return s.arena >= 0 ? arenas[static_cast<std::size_t>(s.arena)].quires.data() : nullptr;
  }

  void bind(Binding& b, nn::Param& p, const PositSpec& spec) {
    b.param = &p;
    b.version = p.version;
    b.panel = encode_pack(p.value, spec);
    ++encodes;
    ++bound;
  }

  /// (Re)derive the per-channel BN constants exactly as the per-layer engine
  /// does: scale = round(gamma) * round(1/sqrt(var+eps)), rounded once.
  void encode_bn(const exec::Step& step, StepState& s) {
    nn::BatchNorm2d& bn = *step.bn;
    const std::size_t c = bn.running_mean().size();
    s.bn_scale.resize(c);
    s.bn_mean.resize(c);
    s.bn_shift.resize(c);
    for (std::size_t ci = 0; ci < c; ++ci) {
      const double inv_std = 1.0 / std::sqrt(static_cast<double>(bn.running_var()[ci]) + bn.eps());
      const std::uint32_t g = posit::from_double(bn.gamma().value[ci], s.spec, kEncodeRound);
      s.bn_scale[ci] = posit::mul(g, posit::from_double(inv_std, s.spec, kEncodeRound), s.spec);
      s.bn_mean[ci] = posit::from_double(bn.running_mean()[ci], s.spec, kEncodeRound);
      s.bn_shift[ci] = posit::from_double(bn.beta().value[ci], s.spec, kEncodeRound);
    }
    s.gamma_version = bn.gamma().version;
    s.beta_version = bn.beta().version;
    s.stats_version = bn.stats_version();
    s.bn_table_stale = true;
    ++encodes;
  }

  void bind_input(Input& in, int slot, const PositSpec& to);
  void compile_step(const exec::Step& step, StepState& s);
  void refresh(bool force);

  std::size_t buffer(int slot) const {
    return static_cast<std::size_t>(eplan.slots[static_cast<std::size_t>(slot)].buffer);
  }
  std::uint32_t* code_data(int slot) { return codes[buffer(slot)].data(); }
  const Tensor& float_slot(int slot, const Tensor& x) const {
    return slot == eplan.input_slot ? x : floats.at(buffer(slot));
  }
  Reads all_of(int slot) const { return {shapes[static_cast<std::size_t>(slot)].numel()}; }
  Operand operand(int slot, Input& in, const PositSpec& to, const Tensor& x, const Reads& reads);
  const std::uint32_t* codes_once(const Operand& a, const Reads& reads);
  const std::int32_t* fixed_once(const Operand& a, const StepState& s, const Reads& reads);
  template <typename T, typename Index>
  detail::ActPanel gather(const T* src, std::size_t rows, std::size_t k, Index index);

  const Tensor& run_impl(const Tensor& x) override;
  const Tensor& decode_output();

  void exec_linear(const exec::Step& step, StepState& s, const Tensor& x);
  void exec_conv(const exec::Step& step, StepState& s, const Tensor& x);
  void exec_bn(const exec::Step& step, StepState& s, const Tensor& x);
  void exec_gap(const exec::Step& step, StepState& s, const Tensor& x);
  void exec_join(const exec::Step& step, StepState& s, const Tensor& x);
  void exec_relu(int in, int out, const Tensor& x);
  void exec_maxpool(const exec::Step& step, const Tensor& x);
};

// ---------------------------------------------------------------------------
// compile
// ---------------------------------------------------------------------------

void PositSession::Impl::bind_input(Input& in, int slot, const PositSpec& to) {
  in.from = kinds[static_cast<std::size_t>(slot)];
  in.read = Input::Read::kStage;
  if (in.from.codes && posit::handoff_lut_supported(in.from.spec, kEncodeRound)) {
    const posit::HandoffLut& lut = posit::handoff_lut(in.from.spec, to, kEncodeRound);
    in.read = lut.identity() ? Input::Read::kCodes : Input::Read::kTable;
    in.table = lut.identity() ? nullptr : lut.data();
  }
}

void PositSession::Impl::compile_step(const exec::Step& step, StepState& s) {
  switch (step.op) {
    case exec::OpKind::kLinear:
      s.spec = cfg.spec_for(step.name, step.cls);
      s.mode = cfg.mode_for(step.name, step.cls);
      s.luts = detail::resolve_luts(s.spec, s.mode);
      if (s.mode == AccumMode::kQuire) s.arena = arena_for(s.spec);
      bind(s.weight, step.linear->weight(), s.spec);
      bind(s.bias, step.linear->bias(), s.spec);
      break;
    case exec::OpKind::kConv2d:
      if (step.folded_bn != nullptr) {
        // The session declines fold_bn by construction (compile() forces it
        // off); this guards against a hand-built plan ever reaching us.
        throw std::invalid_argument("PositSession: step '" + step.name +
                                    "' carries a folded BatchNorm; the posit backend declines "
                                    "fold_bn (pre-scaled weights break its encoded-BN numerics)");
      }
      s.spec = cfg.spec_for(step.name, step.cls);
      s.mode = cfg.mode_for(step.name, step.cls);
      s.luts = detail::resolve_luts(s.spec, s.mode);
      if (s.mode == AccumMode::kQuire) s.arena = arena_for(s.spec);
      bind(s.weight, step.conv->weight(), s.spec);
      if (step.conv->has_bias()) {
        bind(s.bias, step.conv->bias(), s.spec);
      } else {
        s.bias.panel.spec = s.spec;
      }
      break;
    case exec::OpKind::kBatchNorm:
      s.spec = cfg.spec_for(step.name, step.cls);
      s.mode = cfg.mode_for(step.name, step.cls);
      // The per-element transform is one fma: dispatch its table when the BN
      // format is small enough, whatever the accumulation mode.
      if (posit::fma_lut_supported(s.spec, posit::RoundMode::kNearestEven)) {
        s.luts.fma = &posit::fma_lut(s.spec, posit::RoundMode::kNearestEven);
      }
      encode_bn(step, s);
      break;
    case exec::OpKind::kGlobalAvgPool:
      s.spec = cfg.spec_for(step.name, step.cls);  // pooling: conv family (see lowering)
      s.arena = arena_for(s.spec);  // the plane sum always runs through a quire
      break;
    case exec::OpKind::kResidualJoin:
      // step.cls is the conv family (the post-add activation is a conv-class
      // tensor in training too; see the lowering). The join is one rounded
      // add whatever the accumulation mode, so only the add table matters.
      s.spec = cfg.spec_for(step.name, step.cls);
      s.luts = detail::resolve_luts(s.spec, AccumMode::kQuire);
      break;
    case exec::OpKind::kRelu:
    case exec::OpKind::kMaxPool2x2:
      // Format-free: the output keeps its input's kind and spec.
      kinds[static_cast<std::size_t>(step.out)] = kinds[static_cast<std::size_t>(step.in0)];
      return;
  }
  bind_input(s.in[0], step.in0, s.spec);
  if (step.in1 >= 0) bind_input(s.in[1], step.in1, s.spec);
  kinds[static_cast<std::size_t>(step.out)] = {true, s.spec};
  if (step.op == exec::OpKind::kLinear || step.op == exec::OpKind::kConv2d) {
    const std::size_t k = step.op == exec::OpKind::kLinear
                              ? step.in_c
                              : step.in_c * step.kernel * (step.kernel_w != 0 ? step.kernel_w
                                                                               : step.kernel);
    if (detail::uses_fixed_dot(s.mode, s.spec, k) && s.spec.n <= 8) s.fixed_lut.emplace(s.spec);
  }
  if (step.op == exec::OpKind::kBatchNorm) {
    // The table is indexed by the codes the step reads: the producer's, or
    // the step's own when the input is staged.
    const PositSpec index = s.in[0].read == Input::Read::kStage ? s.spec : s.in[0].from.spec;
    s.bn_tabulated = index.n <= 8;
  }
}

// ---------------------------------------------------------------------------
// refresh (Param::version-driven re-encode)
// ---------------------------------------------------------------------------

void PositSession::Impl::refresh(bool force) {
  for (std::size_t i = 0; i < eplan.steps.size(); ++i) {
    const exec::Step& step = eplan.steps[i];
    StepState& s = state[i];
    if (s.weight.param != nullptr && (force || s.weight.param->version != s.weight.version)) {
      s.weight.version = s.weight.param->version;
      s.weight.panel = encode_pack(s.weight.param->value, s.spec);
      ++encodes;
    }
    if (s.bias.param != nullptr && (force || s.bias.param->version != s.bias.version)) {
      s.bias.version = s.bias.param->version;
      s.bias.panel = encode_pack(s.bias.param->value, s.spec);
      ++encodes;
    }
    if (step.bn != nullptr && (force || step.bn->gamma().version != s.gamma_version ||
                               step.bn->beta().version != s.beta_version ||
                               step.bn->stats_version() != s.stats_version)) {
      encode_bn(step, s);
    }
  }
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

Operand PositSession::Impl::operand(int slot, Input& in, const PositSpec& to, const Tensor& x,
                                    const Reads& reads) {
  switch (in.read) {
    case Input::Read::kCodes: return {code_data(slot), nullptr, to};
    case Input::Read::kTable: return {code_data(slot), in.table, in.from.spec};
    case Input::Read::kStage: break;
  }
  in.staged.resize(reads.total);
  std::uint32_t* dst = in.staged.data();
  if (!in.from.codes) {
    // The network input (or a float ReLU/MaxPool of it): the one place a
    // float is encoded, once per element per consumer.
    const float* src = float_slot(slot, x).data();
    for_each_read(reads, [&](std::size_t i) { dst[i] = posit::from_double(src[i], to, kEncodeRound); });
  } else {
    const std::uint32_t* src = code_data(slot);
    const PositSpec from = in.from.spec;
    for_each_read(reads, [&](std::size_t i) { dst[i] = posit::handoff(src[i], from, to, kEncodeRound); });
  }
  return {dst, nullptr, to};
}

const std::uint32_t* PositSession::Impl::codes_once(const Operand& a, const Reads& reads) {
  if (a.table == nullptr) return a.codes;
  once_codes.resize(reads.total);
  std::uint32_t* dst = once_codes.data();
  for_each_read(reads, [&](std::size_t i) { dst[i] = a.at(i); });
  return dst;
}

const std::int32_t* PositSession::Impl::fixed_once(const Operand& a, const StepState& s,
                                                   const Reads& reads) {
  once_fixed.resize(reads.total);
  std::int32_t* dst = once_fixed.data();
  const detail::FixedLut* lut = s.fixed_lut ? &*s.fixed_lut : nullptr;
  for_each_read(reads, [&](std::size_t i) {
    dst[i] = lut != nullptr ? lut->value[a.at(i)] : detail::fixed_of(a.at(i), s.spec);
  });
  return dst;
}

template <typename T, typename Index>
detail::ActPanel PositSession::Impl::gather(const T* src, std::size_t rows, std::size_t k,
                                            Index index) {
  // Element (r, i) of the panel is src[index(r, i)], or 0 — the code and the
  // fixed-point value of the encoded zero padding — where that is < 0. A
  // fixed-point panel also moves each kFixedNar marker into its row's flag.
  // Rows are independent, so the team splits them.
  constexpr bool kFixed = std::is_same_v<T, std::int32_t>;
  std::vector<T>& panel = [this]() -> std::vector<T>& {
    if constexpr (kFixed) {
      return panel_fixed;
    } else {
      return panel_codes;
    }
  }();
  panel.resize(rows * k);
  if (kFixed) panel_nar.resize(rows);
  T* dst = panel.data();
  std::uint8_t* nar = panel_nar.data();
#pragma omp parallel for schedule(static) if (rows > 1 && rows * k > kPositParallelMin)
  for (std::size_t r = 0; r < rows; ++r) {
    bool row_nar = false;
    for (std::size_t i = 0; i < k; ++i) {
      const std::ptrdiff_t j = index(r, i);
      T v = j < 0 ? T{0} : src[j];
      if constexpr (kFixed) {
        row_nar = row_nar || v == detail::kFixedNar;
        if (v == detail::kFixedNar) v = 0;
      }
      dst[r * k + i] = v;
    }
    if constexpr (kFixed) nar[r] = row_nar ? 1 : 0;
  }
  detail::ActPanel out;
  if constexpr (kFixed) {
    out.fixed = dst;
    out.nar = nar;
  } else {
    out.codes = dst;
  }
  return out;
}

const Tensor& PositSession::Impl::run_impl(const Tensor& x) {
  ensure_arena_threads();  // the caller may have grown the OpenMP team
  refresh(force_refresh);
  force_refresh = false;
  shapes[static_cast<std::size_t>(eplan.input_slot)] = x.shape();
  for (std::size_t i = 0; i < eplan.steps.size(); ++i) {
    const exec::Step& step = eplan.steps[i];
    StepState& s = state[i];
    const tensor::Shape* skip = step.in1 >= 0 ? &shapes[static_cast<std::size_t>(step.in1)] : nullptr;
    const std::size_t out = static_cast<std::size_t>(step.out);
    shapes[out] = exec::infer_out_shape(step, shapes[static_cast<std::size_t>(step.in0)], skip,
                                        "PositSession");
    // Size the output store before any input pointer is taken: an in-place
    // step shares the buffer, and the resize keeps its contents.
    if (kinds[out].codes) {
      codes[buffer(step.out)].resize(shapes[out].numel());
    } else {
      floats.bind(buffer(step.out), shapes[out]);
    }
    switch (step.op) {
      case exec::OpKind::kLinear: exec_linear(step, s, x); break;
      case exec::OpKind::kConv2d: exec_conv(step, s, x); break;
      case exec::OpKind::kBatchNorm: exec_bn(step, s, x); break;
      case exec::OpKind::kRelu: exec_relu(step.in0, step.out, x); break;
      case exec::OpKind::kMaxPool2x2: exec_maxpool(step, x); break;
      case exec::OpKind::kGlobalAvgPool: exec_gap(step, s, x); break;
      case exec::OpKind::kResidualJoin: exec_join(step, s, x); break;
    }
  }
  return decode_output();
}

const Tensor& PositSession::Impl::decode_output() {
  const std::size_t slot = static_cast<std::size_t>(eplan.output_slot);
  if (!kinds[slot].codes) return floats.at(buffer(eplan.output_slot));
  output.resize(shapes[slot]);
  const PositSpec spec = kinds[slot].spec;
  const std::uint32_t* src = code_data(eplan.output_slot);
  float* dst = output.data();
  for (std::size_t i = 0; i < output.numel(); ++i) {
    dst[i] = output_nar_is_neg_inf && src[i] == spec.nar_code()
                 ? -std::numeric_limits<float>::infinity()
                 : static_cast<float>(posit::to_double(src[i], spec));
  }
  return output;
}

void PositSession::Impl::exec_linear(const exec::Step& step, StepState& s, const Tensor& x) {
  const std::size_t n = shapes[static_cast<std::size_t>(step.in0)][0];
  const std::size_t k = step.in_c;
  const Reads reads = all_of(step.in0);
  const Operand a = operand(step.in0, s.in[0], s.spec, x, reads);
  // A [n, k] input already is row-major operand rows: the code panel is the
  // converted input itself; only the fixed-point dot gathers (for its row
  // NaR flags).
  detail::ActPanel panel;
  if (detail::uses_fixed_dot(s.mode, s.spec, k)) {
    panel = gather(fixed_once(a, s, reads), n, k, [k](std::size_t r, std::size_t i) {
      return static_cast<std::ptrdiff_t>(r * k + i);
    });
  } else {
    panel.codes = codes_once(a, reads);
  }
  detail::engine_gemm(panel, s.weight.panel, s.bias.panel, n, k, step.out_c, s.mode,
                      code_data(step.out), detail::OutLayout{n, 0, step.out_c, 1},
                      step.epilogue.relu, s.luts, pool(s));
}

void PositSession::Impl::exec_conv(const exec::Step& step, StepState& s, const Tensor& x) {
  const tensor::Shape& in_shape = shapes[static_cast<std::size_t>(step.in0)];
  const tensor::Conv2dGeom geom{step.in_c,   in_shape[2], in_shape[3], step.out_c,
                                step.kernel, step.stride, step.pad,    step.kernel_w};
  const std::size_t batch = in_shape[0];
  const std::size_t pixels = geom.out_h() * geom.out_w();
  const std::size_t patch = geom.patch();
  const std::size_t image = step.in_c * geom.in_h * geom.in_w;
  if (s.map_h != geom.in_h || s.map_w != geom.in_w) {
    // tensor::im2col's index map, transposed so each output pixel's patch is
    // one contiguous operand row (1x1/s1/p0 convs included: the map is then
    // the plain transpose).
    const std::size_t kh = geom.kh(), kw = geom.kw(), ow = geom.out_w();
    s.gather_map.resize(pixels * patch);
    for (std::size_t t = 0; t < pixels; ++t) {
      for (std::size_t p = 0; p < patch; ++p) {
        const std::size_t c = p / (kh * kw), ky = (p / kw) % kh, kx = p % kw;
        const long iy = static_cast<long>((t / ow) * geom.stride + ky) - static_cast<long>(geom.pad);
        const long ix = static_cast<long>((t % ow) * geom.stride + kx) - static_cast<long>(geom.pad);
        const bool inside = iy >= 0 && iy < static_cast<long>(geom.in_h) && ix >= 0 &&
                            ix < static_cast<long>(geom.in_w);
        s.gather_map[t * patch + p] =
            inside ? static_cast<std::int32_t>(c * geom.in_h * geom.in_w +
                                               static_cast<std::size_t>(iy) * geom.in_w +
                                               static_cast<std::size_t>(ix))
                   : -1;
      }
    }
    std::vector<std::uint8_t> used(image, 0);
    for (const std::int32_t m : s.gather_map) {
      if (m >= 0) used[static_cast<std::size_t>(m)] = 1;
    }
    s.touched.clear();
    if (std::count(used.begin(), used.end(), 1) < static_cast<std::ptrdiff_t>(image)) {
      for (std::size_t o = 0; o < image; ++o) {
        if (used[o] != 0) s.touched.push_back(static_cast<std::int32_t>(o));
      }
    }
    s.map_h = geom.in_h;
    s.map_w = geom.in_w;
  }
  // Convert every input element the map reads once, then gather one panel
  // row per (image, output pixel): the whole batch is one GEMM.
  const Reads reads{batch * image, s.touched.empty() ? nullptr : &s.touched, image};
  const Operand a = operand(step.in0, s.in[0], s.spec, x, reads);
  const std::int32_t* map = s.gather_map.data();
  const auto index = [=](std::size_t r, std::size_t i) {
    const std::int32_t m = map[(r % pixels) * patch + i];
    return m < 0 ? std::ptrdiff_t{-1} : static_cast<std::ptrdiff_t>((r / pixels) * image) + m;
  };
  const detail::ActPanel panel =
      detail::uses_fixed_dot(s.mode, s.spec, patch)
          ? gather(fixed_once(a, s, reads), batch * pixels, patch, index)
          : gather(codes_once(a, reads), batch * pixels, patch, index);
  detail::engine_gemm(panel, s.weight.panel, s.bias.panel, batch * pixels, patch, step.out_c,
                      s.mode, code_data(step.out),
                      detail::OutLayout{pixels, step.out_c * pixels, 1, pixels},
                      step.epilogue.relu, s.luts, pool(s));
}

void PositSession::Impl::exec_bn(const exec::Step& step, StepState& s, const Tensor& x) {
  // Eval-mode BN as posit arithmetic: y = scale * (x - mean) + shift with
  // scale/mean/shift pre-encoded per channel.
  const tensor::Shape& shape = shapes[static_cast<std::size_t>(step.in0)];
  const std::size_t n = shape[0], c = shape[1];
  const std::size_t plane = shape[2] * shape[3];
  const Operand a = operand(step.in0, s.in[0], s.spec, x, all_of(step.in0));
  std::uint32_t* out = code_data(step.out);
  const std::uint32_t clamp = step.epilogue.relu ? s.spec.sign_bit() : 0u;
  const auto apply = [&s, clamp](std::size_t ci, std::uint32_t xv) {
    const std::uint32_t centered = posit::sub(xv, s.bn_mean[ci], s.spec);
    const std::uint32_t y = s.luts.fma != nullptr
                                ? s.luts.fma->at(centered, s.bn_scale[ci], s.bn_shift[ci])
                                : posit::fma(centered, s.bn_scale[ci], s.bn_shift[ci], s.spec);
    return (y & clamp) != 0 ? 0u : y;
  };
  const std::size_t per = s.bn_tabulated ? static_cast<std::size_t>(a.spec.code_count()) : 0;
  if (s.bn_tabulated && s.bn_table_stale) {
    // Every (channel, input code) entry is independent: the team splits them.
    s.bn_table.resize(c * per);
    std::uint32_t* table = s.bn_table.data();
#pragma omp parallel for schedule(static)
    for (std::size_t e = 0; e < c * per; ++e) {
      const auto code = static_cast<std::uint32_t>(e % per);
      table[e] = apply(e / per, a.table != nullptr ? a.table[code] : code);
    }
    s.bn_table_stale = false;
  }
  // Every (image, channel) slice is independent; the team splits the
  // collapsed slice range. out may alias the input (in-place step): reads
  // and writes share the index.
  const bool team = n * c > 1 && n * c * plane > kPositParallelMin;
#pragma omp parallel for schedule(static) collapse(2) if (team)
  for (std::size_t ni = 0; ni < n; ++ni) {
    for (std::size_t ci = 0; ci < c; ++ci) {
      const std::size_t base = (ni * c + ci) * plane;
      if (per != 0) {
        const std::uint32_t* table = s.bn_table.data() + ci * per;
        for (std::size_t p = 0; p < plane; ++p) out[base + p] = table[a.codes[base + p]];
      } else {
        for (std::size_t p = 0; p < plane; ++p) out[base + p] = apply(ci, a.at(base + p));
      }
    }
  }
}

void PositSession::Impl::exec_gap(const exec::Step& step, StepState& s, const Tensor& x) {
  // Average = quire sum then posit division by the (exact) plane count.
  const tensor::Shape& shape = shapes[static_cast<std::size_t>(step.in0)];
  const std::size_t n = shape[0], c = shape[1];
  const std::size_t plane = shape[2] * shape[3];
  const Operand a = operand(step.in0, s.in[0], s.spec, x, all_of(step.in0));
  std::uint32_t* out = code_data(step.out);
  const std::uint32_t divisor =
      posit::from_double(static_cast<double>(plane), s.spec, kEncodeRound);
  posit::Quire* quires = pool(s);
  // Each (image, channel) cell owns its reduction; per-thread quires.
#pragma omp parallel
  {
#ifdef _OPENMP
    posit::Quire& quire = quires[omp_get_thread_num()];
#else
    posit::Quire& quire = quires[0];
#endif
#pragma omp for schedule(static) collapse(2)
    for (std::size_t ni = 0; ni < n; ++ni) {
      for (std::size_t ci = 0; ci < c; ++ci) {
        quire.clear();
        const std::size_t base = (ni * c + ci) * plane;
        for (std::size_t p = 0; p < plane; ++p) quire.add_posit(a.at(base + p));
        out[ni * c + ci] = posit::div(quire.to_posit(), divisor, s.spec);
      }
    }
  }
}

void PositSession::Impl::exec_join(const exec::Step& step, StepState& s, const Tensor& x) {
  const Operand main = operand(step.in0, s.in[0], s.spec, x, all_of(step.in0));
  const Operand skip = operand(step.in1, s.in[1], s.spec, x, all_of(step.in1));
  const std::size_t numel = shapes[static_cast<std::size_t>(step.out)].numel();
  std::uint32_t* out = code_data(step.out);
  const std::uint32_t sign = s.spec.sign_bit();
  // Join then ReLU, all in the block's format. The exact sum of two posits
  // rounded once — what a quire would accumulate — is posit::add by
  // definition, so every accumulation mode runs the rounded add, from its
  // table when the format has one (n <= 8).
#pragma omp parallel for schedule(static) if (numel > kPositParallelMin)
  for (std::size_t i = 0; i < numel; ++i) {
    const std::uint32_t a = main.at(i), b = skip.at(i);
    const std::uint32_t joined =
        s.luts.add != nullptr ? s.luts.add->at(a, b) : posit::add(a, b, s.spec);
    out[i] = (joined & sign) != 0 ? 0u : joined;
  }
}

void PositSession::Impl::exec_relu(int in, int out, const Tensor& x) {
  const SlotKind& kind = kinds[static_cast<std::size_t>(in)];
  if (!kind.codes) {
    exec::relu_kernel(float_slot(in, x), floats.at(buffer(out)));
    return;
  }
  // A code with the sign bit set (negative or NaR) becomes zero: the float
  // kernel's v > 0 ? v : 0 on the decoded value, NaN included.
  const std::size_t numel = shapes[static_cast<std::size_t>(out)].numel();
  const std::uint32_t* src = code_data(in);
  std::uint32_t* dst = code_data(out);
  const std::uint32_t sign = kind.spec.sign_bit();
#pragma omp parallel for schedule(static) if (numel > 16384)
  for (std::size_t i = 0; i < numel; ++i) dst[i] = (src[i] & sign) != 0 ? 0u : src[i];
}

void PositSession::Impl::exec_maxpool(const exec::Step& step, const Tensor& x) {
  const SlotKind& kind = kinds[static_cast<std::size_t>(step.in0)];
  if (!kind.codes) {
    exec::maxpool2x2_kernel(float_slot(step.in0, x), floats.at(buffer(step.out)));
    return;
  }
  // The signed-integer max of the codes is the max of their values with NaR
  // (the lowest code) skipped, and NaR only when the whole window is NaR —
  // the float kernel's NaN-skipping max, read back through the next
  // consumer's encode (its all-NaN -inf encodes to NaR too).
  const tensor::Shape& shape = shapes[static_cast<std::size_t>(step.in0)];
  const std::size_t planes = shape[0] * shape[1], ih = shape[2], iw = shape[3];
  const std::size_t oh = ih / 2, ow = iw / 2;
  const std::uint32_t* src = code_data(step.in0);
  std::uint32_t* dst = code_data(step.out);
  const int shift = 32 - kind.spec.n;
  const std::uint32_t mask = kind.spec.mask();
#pragma omp parallel for schedule(static) if (planes > 1 && planes * oh * ow > 16384)
  for (std::size_t plane = 0; plane < planes; ++plane) {
    const std::uint32_t* ip = src + plane * ih * iw;
    std::uint32_t* op = dst + plane * oh * ow;
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t xo = 0; xo < ow; ++xo) {
        std::int32_t best = std::numeric_limits<std::int32_t>::min();
        for (std::size_t dy = 0; dy < 2; ++dy) {
          for (std::size_t dx = 0; dx < 2; ++dx) {
            best = std::max(best, code_order(ip[(2 * y + dy) * iw + 2 * xo + dx], shift));
          }
        }
        op[y * ow + xo] = static_cast<std::uint32_t>(best) & mask;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PositSession
// ---------------------------------------------------------------------------

PositSession::PositSession() : impl_(std::make_unique<Impl>()) {}
PositSession::PositSession(PositSession&&) noexcept = default;
PositSession& PositSession::operator=(PositSession&&) noexcept = default;
PositSession::~PositSession() = default;

PositSession PositSession::compile(nn::Module& net, const SessionConfig& cfg) {
  PositSession session;
  Impl& I = *session.impl_;
  I.cfg = cfg;
  I.net = &net;
  // The session consumes the bit-identical passes (a fused ReLU clamps the
  // codes a step stores; 1x1 elision moves no arithmetic) but
  // declines fold_bn: its BN runs in encoded posit arithmetic, and a
  // pre-scaled float weight panel would change which values get encoded.
  exec::PlanOptions opts = exec::PlanOptions::defaults();
  opts.fold_bn = false;
  I.eplan = exec::GraphBuilder::lower(net, opts);
  I.floats.configure(I.eplan.num_buffers);
  I.codes.resize(I.eplan.num_buffers);
  I.kinds.assign(I.eplan.slots.size(), SlotKind{});  // the input slot stays float
  I.shapes.resize(I.eplan.slots.size());
  I.state.resize(I.eplan.steps.size());
  for (std::size_t i = 0; i < I.eplan.steps.size(); ++i) {
    const exec::Step& step = I.eplan.steps[i];
    I.compile_step(step, I.state[i]);
    if (step.out == I.eplan.output_slot) {
      I.output_nar_is_neg_inf = step.op == exec::OpKind::kMaxPool2x2 &&
                                I.kinds[static_cast<std::size_t>(step.in0)].codes;
    }
  }
  I.ensure_arena_threads();
  return session;
}

std::unique_ptr<exec::Backend> PositSession::compile_backend(nn::Module& net,
                                                            const SessionConfig& cfg) {
  PositSession session = compile(net, cfg);
  return std::move(session.impl_);
}

const Tensor& PositSession::run(const Tensor& x) { return impl_->run(x); }

void PositSession::invalidate() { impl_->force_refresh = true; }

const SessionConfig& PositSession::config() const { return impl_->cfg; }
const exec::ExecPlan& PositSession::plan() const { return impl_->eplan; }
std::size_t PositSession::arena_bytes() const { return impl_->arena_bytes(); }
std::size_t PositSession::steps() const { return impl_->eplan.top_level_steps; }
std::size_t PositSession::bound_params() const { return impl_->bound; }
std::uint64_t PositSession::encode_count() const { return impl_->encodes; }

std::size_t PositSession::panel_bytes() const {
  std::size_t bytes = 0;
  for (const StepState& s : impl_->state) {
    for (const Binding* b : {&s.weight, &s.bias}) bytes += b->panel.payload_bytes();
    bytes += (s.bn_scale.size() + s.bn_mean.size() + s.bn_shift.size()) * sizeof(std::uint32_t);
  }
  return bytes;
}

std::size_t PositSession::panel_scratch_bytes() const {
  const Impl& I = *impl_;
  std::size_t bytes =
      I.code_arena_bytes() + (I.once_codes.capacity() + I.panel_codes.capacity()) * sizeof(std::uint32_t) +
      (I.once_fixed.capacity() + I.panel_fixed.capacity()) * sizeof(std::int32_t) +
      I.panel_nar.capacity();
  for (const StepState& s : I.state) {
    for (const Input& in : s.in) bytes += in.staged.capacity() * sizeof(std::uint32_t);
    bytes += (s.gather_map.capacity() + s.touched.capacity() + s.bn_table.capacity()) *
             sizeof(std::uint32_t);
  }
  return bytes;
}

}  // namespace pdnn::quant
