// serialize.hpp — model checkpointing.
//
// Saves/loads all learnable parameters of a module tree by name, in a simple
// binary container. Two uses in this repo: reusing a warm-up-trained FP32
// checkpoint across posit configurations (the paper trains the warm-up once
// per run; sharing it makes ablations comparable), and persisting posit
// models compactly via PackedPositTensor (the 25%/50% model-size claim).
#pragma once

#include <iosfwd>
#include <string>

#include "nn/layers.hpp"
#include "posit/packed.hpp"

namespace pdnn::nn {

/// Writes `net`'s parameters (FP32) to the stream. Format:
///   magic "PDNN0001" | u64 param count | per param:
///   u32 name length | name bytes | u32 rank | u64 dims[rank] | f32 data[]
void save_parameters(std::ostream& os, Sequential& net);

/// Restores parameters by name; throws std::runtime_error on missing,
/// unknown or repeated params, shape mismatch, or a malformed or truncated
/// stream (checkpoint and architecture must agree). The whole stream is
/// validated before any parameter is written: a load that throws leaves
/// every value and Param::version as it was.
void load_parameters(std::istream& is, Sequential& net);

/// Convenience file wrappers.
void save_parameters_file(const std::string& path, Sequential& net);
void load_parameters_file(const std::string& path, Sequential& net);

/// Posit-compressed checkpoint: every parameter packed to (n, es) codes.
/// Returns total payload bytes (the model-size number of Section IV).
std::size_t save_parameters_posit(std::ostream& os, Sequential& net, const posit::PositSpec& spec);
/// Same validate-then-commit contract as load_parameters.
void load_parameters_posit(std::istream& is, Sequential& net);

}  // namespace pdnn::nn
