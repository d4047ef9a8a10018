#include "nn/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace pdnn::nn {

namespace {

constexpr char kMagicF32[8] = {'P', 'D', 'N', 'N', '0', '0', '0', '2'};
constexpr char kMagicPosit[8] = {'P', 'D', 'N', 'N', 'P', '0', '0', '2'};
// Version 1 of each format: parameters only, no BN running statistics.
constexpr char kMagicF32V1[8] = {'P', 'D', 'N', 'N', '0', '0', '0', '1'};
constexpr char kMagicPositV1[8] = {'P', 'D', 'N', 'N', 'P', '0', '0', '1'};

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("checkpoint: truncated stream");
  return v;
}

void write_header(std::ostream& os, const char (&magic)[8], std::uint64_t count) {
  os.write(magic, 8);
  write_pod(os, count);
}

void expect_magic(std::istream& is, const char (&magic)[8]) {
  char buf[8];
  is.read(buf, 8);
  if (is && (std::memcmp(buf, kMagicF32V1, 8) == 0 || std::memcmp(buf, kMagicPositV1, 8) == 0)) {
    throw std::runtime_error("checkpoint: version 1 format (" + std::string(buf, 8) +
                             ") lacks BN running statistics and is no longer read; re-save the "
                             "model to write version 2 (" + std::string(magic, 8) + ")");
  }
  if (!is || std::memcmp(buf, magic, 8) != 0) throw std::runtime_error("checkpoint: bad magic");
}

/// Every BatchNorm2d of the module graph, pre-order (the record order).
std::vector<BatchNorm2d*> batch_norms(Sequential& net) {
  std::vector<BatchNorm2d*> bns;
  net.visit([&bns](Module& m) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(&m)) bns.push_back(bn);
  });
  return bns;
}

/// The BN trailer both formats end with: u64 count | per BN: u32 name length
/// | name | u64 channels | f32 running_mean[channels] | f32 running_var[channels].
void write_bn_stats(std::ostream& os, Sequential& net) {
  const std::vector<BatchNorm2d*> bns = batch_norms(net);
  write_pod(os, static_cast<std::uint64_t>(bns.size()));
  for (const BatchNorm2d* bn : bns) {
    const auto len = static_cast<std::uint32_t>(bn->name().size());
    write_pod(os, len);
    os.write(bn->name().data(), len);
    write_pod(os, static_cast<std::uint64_t>(bn->channels()));
    for (const std::vector<float>* v : {&bn->running_mean(), &bn->running_var()}) {
      os.write(reinterpret_cast<const char*>(v->data()),
               static_cast<std::streamsize>(v->size() * sizeof(float)));
    }
  }
}

struct StagedStats {
  BatchNorm2d* bn = nullptr;
  std::vector<float> mean, var;
};

/// Parse the BN trailer against the model: every BN named exactly once, with
/// its channel count. Nothing is written to the model here.
std::vector<StagedStats> read_bn_stats(std::istream& is, Sequential& net) {
  std::map<std::string, BatchNorm2d*> by_name;
  for (BatchNorm2d* bn : batch_norms(net)) by_name[bn->name()] = bn;
  const auto count = read_pod<std::uint64_t>(is);
  if (count != by_name.size()) throw std::runtime_error("checkpoint: BatchNorm count mismatch");
  std::vector<StagedStats> staged;
  std::set<std::string> seen;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto len = read_pod<std::uint32_t>(is);
    if (len > 4096) throw std::runtime_error("checkpoint: absurd name length");
    std::string name(len, '\0');
    is.read(name.data(), len);
    const auto it = by_name.find(name);
    if (!is || it == by_name.end()) throw std::runtime_error("checkpoint: unknown BatchNorm " + name);
    if (!seen.insert(name).second) throw std::runtime_error("checkpoint: duplicate BatchNorm " + name);
    if (read_pod<std::uint64_t>(is) != it->second->channels()) {
      throw std::runtime_error("checkpoint: channel mismatch for BatchNorm " + name);
    }
    StagedStats st{it->second, std::vector<float>(it->second->channels()),
                   std::vector<float>(it->second->channels())};
    for (std::vector<float>* v : {&st.mean, &st.var}) {
      is.read(reinterpret_cast<char*>(v->data()), static_cast<std::streamsize>(v->size() * sizeof(float)));
    }
    if (!is) throw std::runtime_error("checkpoint: truncated statistics for BatchNorm " + name);
    staged.push_back(std::move(st));
  }
  return staged;
}

void write_name_shape(std::ostream& os, const Param& p) {
  const auto len = static_cast<std::uint32_t>(p.name.size());
  write_pod(os, len);
  os.write(p.name.data(), len);
  const auto rank = static_cast<std::uint32_t>(p.value.shape().rank());
  write_pod(os, rank);
  for (std::uint32_t d = 0; d < rank; ++d) {
    write_pod(os, static_cast<std::uint64_t>(p.value.shape()[d]));
  }
}

struct NameShape {
  std::string name;
  tensor::Shape shape;
};

NameShape read_name_shape(std::istream& is) {
  NameShape out;
  const auto len = read_pod<std::uint32_t>(is);
  if (len > 4096) throw std::runtime_error("checkpoint: absurd name length");
  out.name.resize(len);
  is.read(out.name.data(), len);
  const auto rank = read_pod<std::uint32_t>(is);
  if (rank > 4) throw std::runtime_error("checkpoint: rank > 4");
  std::size_t dims[4] = {0, 0, 0, 0};
  for (std::uint32_t d = 0; d < rank; ++d) dims[d] = static_cast<std::size_t>(read_pod<std::uint64_t>(is));
  switch (rank) {
    case 0: out.shape = tensor::Shape{}; break;
    case 1: out.shape = tensor::Shape{dims[0]}; break;
    case 2: out.shape = tensor::Shape{dims[0], dims[1]}; break;
    case 3: out.shape = tensor::Shape{dims[0], dims[1], dims[2]}; break;
    default: out.shape = tensor::Shape{dims[0], dims[1], dims[2], dims[3]}; break;
  }
  return out;
}

std::map<std::string, Param*> params_by_name(Sequential& net) {
  std::map<std::string, Param*> map;
  for (Param* p : net.params()) map[p->name] = p;
  return map;
}

/// Validate, then commit: every record of the stream is parsed into staging
/// first — `read_value(is, ns)` reads one parameter record's payload after
/// its name and shape, then the BN statistics trailer follows — and only a
/// stream that names each parameter and each BatchNorm exactly once, with its
/// shape, is copied into the model and version-bumped. Any failure throws
/// with every value, Param::version and stats_version() untouched. Shapes are
/// checked against the model before a payload is allocated.
template <typename ReadValue>
void load_staged(std::istream& is, const char (&magic)[8], Sequential& net,
                 ReadValue&& read_value) {
  expect_magic(is, magic);
  const auto count = read_pod<std::uint64_t>(is);
  const auto by_name = params_by_name(net);
  if (count != by_name.size()) throw std::runtime_error("checkpoint: parameter count mismatch");
  std::vector<std::pair<Param*, tensor::Tensor>> staged;
  staged.reserve(by_name.size());
  std::set<std::string> seen;
  for (std::uint64_t i = 0; i < count; ++i) {
    const NameShape ns = read_name_shape(is);
    const auto it = by_name.find(ns.name);
    if (it == by_name.end()) throw std::runtime_error("checkpoint: unknown parameter " + ns.name);
    if (!seen.insert(ns.name).second) {
      throw std::runtime_error("checkpoint: duplicate parameter " + ns.name);
    }
    if (it->second->value.shape() != ns.shape) {
      throw std::runtime_error("checkpoint: shape mismatch for " + ns.name);
    }
    staged.emplace_back(it->second, read_value(is, ns));
  }
  const std::vector<StagedStats> stats = read_bn_stats(is, net);
  for (auto& [param, value] : staged) {
    std::copy(value.data(), value.data() + value.numel(), param->value.data());
    param->mark_updated();
  }
  for (const StagedStats& st : stats) st.bn->set_running_stats(st.mean.data(), st.var.data());
}

}  // namespace

void save_parameters(std::ostream& os, Sequential& net) {
  const auto params = net.params();
  write_header(os, kMagicF32, params.size());
  for (const Param* p : params) {
    write_name_shape(os, *p);
    os.write(reinterpret_cast<const char*>(p->value.data()),
             static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
  }
  write_bn_stats(os, net);
}

void load_parameters(std::istream& is, Sequential& net) {
  load_staged(is, kMagicF32, net, [](std::istream& in, const NameShape& ns) {
    tensor::Tensor value(ns.shape);
    in.read(reinterpret_cast<char*>(value.data()),
            static_cast<std::streamsize>(value.numel() * sizeof(float)));
    if (!in) throw std::runtime_error("checkpoint: truncated data for " + ns.name);
    return value;
  });
}

void save_parameters_file(const std::string& path, Sequential& net) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open " + path + " for writing");
  save_parameters(os, net);
}

void load_parameters_file(const std::string& path, Sequential& net) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  load_parameters(is, net);
}

std::size_t save_parameters_posit(std::ostream& os, Sequential& net, const posit::PositSpec& spec) {
  const auto params = net.params();
  write_header(os, kMagicPosit, params.size());
  std::size_t payload = 0;
  for (const Param* p : params) {
    write_name_shape(os, *p);
    write_pod(os, static_cast<std::uint32_t>(spec.n));
    write_pod(os, static_cast<std::uint32_t>(spec.es));
    const posit::PackedPositTensor packed =
        posit::PackedPositTensor::pack(p->value, spec, posit::RoundMode::kNearestEven);
    const auto bytes = static_cast<std::uint64_t>(packed.byte_size());
    write_pod(os, bytes);
    // Re-encode to a contiguous buffer via code_at for portability.
    std::vector<std::uint8_t> buf(packed.byte_size(), 0);
    for (std::size_t i = 0; i < packed.numel(); ++i) {
      const std::uint32_t code = packed.code_at(i);
      const std::size_t bit0 = i * static_cast<std::size_t>(spec.n);
      for (int b = 0; b < spec.n; ++b) {
        const std::size_t bit = bit0 + static_cast<std::size_t>(b);
        if ((code >> b) & 1u) buf[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
      }
    }
    os.write(reinterpret_cast<const char*>(buf.data()), static_cast<std::streamsize>(buf.size()));
    payload += buf.size();
  }
  write_bn_stats(os, net);
  return payload;
}

void load_parameters_posit(std::istream& is, Sequential& net) {
  load_staged(is, kMagicPosit, net, [](std::istream& in, const NameShape& ns) {
    const auto n = static_cast<int>(read_pod<std::uint32_t>(in));
    const auto es = static_cast<int>(read_pod<std::uint32_t>(in));
    const posit::PositSpec spec{n, es};
    spec.validate();
    const auto bytes = read_pod<std::uint64_t>(in);
    posit::PackedPositTensor packed(spec, ns.shape);
    if (bytes != packed.byte_size()) throw std::runtime_error("checkpoint: payload size mismatch");
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(bytes));
    in.read(reinterpret_cast<char*>(buf.data()), static_cast<std::streamsize>(buf.size()));
    if (!in) throw std::runtime_error("checkpoint: truncated posit payload");
    for (std::size_t e = 0; e < packed.numel(); ++e) {
      std::uint32_t code = 0;
      const std::size_t bit0 = e * static_cast<std::size_t>(spec.n);
      for (int b = 0; b < spec.n; ++b) {
        const std::size_t bit = bit0 + static_cast<std::size_t>(b);
        code |= static_cast<std::uint32_t>((buf[bit / 8] >> (bit % 8)) & 1u) << b;
      }
      packed.set_code(e, code);
    }
    return packed.unpack();
  });
}

}  // namespace pdnn::nn
