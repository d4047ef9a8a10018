// serialize.hpp — model checkpointing.
//
// Saves/loads the eval state of a module tree — all learnable parameters plus
// every BatchNorm2d's running statistics — by name, in a simple binary
// container. Two uses in this repo: reusing a warm-up-trained FP32
// checkpoint across posit configurations (the paper trains the warm-up once
// per run; sharing it makes ablations comparable), and persisting posit
// models compactly via PackedPositTensor (the 25%/50% model-size claim).
#pragma once

#include <iosfwd>
#include <string>

#include "nn/layers.hpp"
#include "posit/packed.hpp"

namespace pdnn::nn {

/// Writes `net`'s parameters (FP32) and BN running statistics to the
/// stream. Format (version 2):
///   magic "PDNN0002" | u64 param count | per param:
///     u32 name length | name bytes | u32 rank | u64 dims[rank] | f32 data[]
///   u64 BatchNorm count | per BatchNorm2d (module pre-order):
///     u32 name length | name bytes | u64 channels |
///     f32 running_mean[channels] | f32 running_var[channels]
void save_parameters(std::ostream& os, Sequential& net);

/// Restores parameters and BN running statistics by name; throws
/// std::runtime_error on missing, unknown or repeated params or BatchNorms,
/// shape or channel mismatch, a version 1 stream ("PDNN0001"/"PDNNP001",
/// which carried no statistics), or a malformed or truncated stream
/// (checkpoint and architecture must agree). The whole stream is validated
/// before anything is written: a load that throws leaves every value,
/// Param::version and BatchNorm2d::stats_version() as it was. A successful
/// load bumps the versions of everything it wrote, so compiled backends
/// re-derive their panels and BN constants.
void load_parameters(std::istream& is, Sequential& net);

/// Convenience file wrappers.
void save_parameters_file(const std::string& path, Sequential& net);
void load_parameters_file(const std::string& path, Sequential& net);

/// Posit-compressed checkpoint: every parameter packed to (n, es) codes.
/// Same layout as save_parameters under magic "PDNNP002", except that each
/// parameter record carries u32 n | u32 es | u64 byte count | packed codes in
/// place of f32 data. The BN statistics trailer stays f32: a few values per
/// channel, restored exactly. Returns total parameter payload bytes (the
/// model-size number of Section IV).
std::size_t save_parameters_posit(std::ostream& os, Sequential& net, const posit::PositSpec& spec);
/// Same validate-then-commit contract as load_parameters.
void load_parameters_posit(std::istream& is, Sequential& net);

}  // namespace pdnn::nn
