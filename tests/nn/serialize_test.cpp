// serialize_test.cpp — checkpoint save/load, FP32 and posit-compressed.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "exec/float_backend.hpp"
#include "nn/resnet.hpp"
#include "nn/serialize.hpp"
#include "quant/posit_session.hpp"
#include "quant/posit_transform.hpp"

namespace pdnn::nn {
namespace {

using tensor::Rng;
using tensor::Tensor;

/// Byte offset where each parameter record starts in a checkpoint blob, in
/// params() order, then the blob's end. A record opens with its u32 name
/// length followed by the name.
std::vector<std::size_t> record_starts(const std::string& blob, Sequential& net) {
  std::vector<std::size_t> starts;
  std::size_t from = 16;  // magic + u64 count
  for (const Param* p : net.params()) {
    const std::size_t at = blob.find(p->name, from);
    starts.push_back(at - sizeof(std::uint32_t));
    from = at + p->name.size();
  }
  starts.push_back(blob.size());
  return starts;
}

/// Every parameter's version and value bytes.
std::vector<std::string> snapshot(Sequential& net) {
  std::vector<std::string> out;
  for (const Param* p : net.params()) {
    std::string s(reinterpret_cast<const char*>(&p->version), sizeof(p->version));
    s.append(reinterpret_cast<const char*>(p->value.data()), p->value.numel() * sizeof(float));
    out.push_back(std::move(s));
  }
  return out;
}

/// A stream that repeats fc2.weight (right count, head.weight missing) and one
/// cut inside its second tensor must both throw, leaving every parameter's
/// value and version as they were; the intact stream then loads.
void expect_bad_streams_leave_model_untouched(bool posit_format) {
  Rng rng(8);
  auto src = mlp(2, 4, 2, 3, rng);
  auto dst = mlp(2, 4, 2, 3, rng);
  std::stringstream ss;
  if (posit_format) {
    save_parameters_posit(ss, *src, posit::PositSpec{8, 1});
  } else {
    save_parameters(ss, *src);
  }
  const std::string blob = ss.str();
  const std::vector<std::size_t> starts = record_starts(blob, *src);
  const auto params = src->params();
  const auto index_of = [&](const std::string& name) {
    std::size_t i = 0;
    while (params[i]->name != name) ++i;
    return i;
  };
  const std::size_t fc2 = index_of("fc2.weight"), head = index_of("head.weight");
  ASSERT_LT(fc2, head);
  const std::string repeated = blob.substr(0, starts[head]) +
                               blob.substr(starts[fc2], starts[fc2 + 1] - starts[fc2]) +
                               blob.substr(starts[head + 1]);
  const std::string truncated = blob.substr(0, starts[2] - 2);
  const auto load = [&](const std::string& bytes) {
    std::stringstream in(bytes);
    if (posit_format) {
      load_parameters_posit(in, *dst);
    } else {
      load_parameters(in, *dst);
    }
  };
  for (const std::string* bad : {&repeated, &truncated}) {
    const std::vector<std::string> before = snapshot(*dst);
    EXPECT_THROW(load(*bad), std::runtime_error) << (bad == &repeated ? "repeated" : "truncated");
    EXPECT_EQ(snapshot(*dst), before) << (bad == &repeated ? "repeated" : "truncated");
  }
  const std::vector<std::string> before = snapshot(*dst);
  load(blob);
  EXPECT_NE(snapshot(*dst), before);
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Every Param::version, then every BatchNorm2d::stats_version(), in graph
/// order.
std::vector<std::uint64_t> versions(Sequential& net) {
  std::vector<std::uint64_t> out;
  for (const Param* p : net.params()) out.push_back(p->version);
  net.visit([&out](Module& m) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(&m)) out.push_back(bn->stats_version());
  });
  return out;
}

void save(std::ostream& os, Sequential& net, bool posit_format) {
  if (posit_format) {
    save_parameters_posit(os, net, posit::PositSpec{8, 1});
  } else {
    save_parameters(os, net);
  }
}

void load(std::istream& is, Sequential& net, bool posit_format) {
  if (posit_format) {
    load_parameters_posit(is, net);
  } else {
    load_parameters(is, net);
  }
}

/// A ResNet-8 after a few training forwards (BN running statistics moved,
/// no optimizer step) saved and loaded into a fresh net must evaluate
/// bit-identically — on the float plan, and on a PositSession compiled
/// against the fresh net before the load (its BN tables must rebuild on the
/// bumped stats_version). A stream cut inside the statistics trailer throws
/// and leaves every version as it was.
void expect_round_trip_keeps_eval_bits(bool posit_format) {
  Rng rng(11);
  ResNetConfig rc;
  rc.base_channels = 4;
  auto src = cifar_resnet(rc, rng);
  auto dst = cifar_resnet(rc, rng);
  if (posit_format) {
    // Snap the weights onto the posit(8,1) grid first, so the compressed
    // round trip is exact and only the statistics are under test.
    std::stringstream snap;
    save(snap, *src, true);
    load(snap, *src, true);
  }
  for (int i = 0; i < 3; ++i) src->forward(Tensor::randn({4, 3, 8, 8}, rng), true);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const auto cfg =
      quant::SessionConfig::from_quant(quant::QuantConfig::cifar8(), quant::AccumMode::kQuire);
  quant::PositSession served = quant::PositSession::compile(*dst, cfg);
  served.run(x);  // builds its BN tables from the fresh net's statistics

  std::stringstream ss;
  save(ss, *src, posit_format);
  const std::string blob = ss.str();
  const std::vector<std::uint64_t> before = versions(*dst);
  for (const std::size_t cut : {std::size_t{8}, std::size_t{200}}) {
    // The trailer's last BatchNorm record ends the stream: cut inside it.
    std::stringstream truncated(blob.substr(0, blob.size() - cut));
    EXPECT_THROW(load(truncated, *dst, posit_format), std::runtime_error) << "cut " << cut;
    EXPECT_EQ(versions(*dst), before) << "cut " << cut;
  }

  load(ss, *dst, posit_format);
  const std::vector<std::uint64_t> after = versions(*dst);
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_NE(after[i], before[i]) << "a load bumps every parameter and statistics version";
  }
  exec::FloatBackend float_src = exec::FloatBackend::compile(*src);
  exec::FloatBackend float_dst = exec::FloatBackend::compile(*dst);
  EXPECT_TRUE(bit_identical(float_src.run(x), float_dst.run(x)));
  quant::PositSession fresh = quant::PositSession::compile(*src, cfg);
  EXPECT_TRUE(bit_identical(served.run(x), fresh.run(x)));
}

TEST(Serialize, Fp32RoundTripKeepsBnStatisticsAndEvalBits) {
  expect_round_trip_keeps_eval_bits(/*posit_format=*/false);
}

TEST(Serialize, PositRoundTripKeepsBnStatisticsAndEvalBits) {
  expect_round_trip_keeps_eval_bits(/*posit_format=*/true);
}

TEST(Serialize, VersionOneStreamsAreRefusedByName) {
  Rng rng(12);
  auto net = mlp(2, 4, 2, 1, rng);
  for (const bool posit_format : {false, true}) {
    std::stringstream ss;
    save(ss, *net, posit_format);
    std::string blob = ss.str();
    blob[7] = '1';  // PDNN0002 -> PDNN0001, PDNNP002 -> PDNNP001
    std::stringstream old(blob);
    try {
      load(old, *net, posit_format);
      ADD_FAILURE() << "a version 1 stream must not load";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos) << e.what();
    }
  }
}

TEST(Serialize, Fp32RoundTripBitExact) {
  Rng rng(1);
  ResNetConfig rc;
  rc.base_channels = 4;
  auto a = cifar_resnet(rc, rng);
  auto b = cifar_resnet(rc, rng);  // different random init

  std::stringstream ss;
  save_parameters(ss, *a);
  load_parameters(ss, *b);

  const auto pa = a->params();
  const auto pb = b->params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->name, pb[i]->name);
    for (std::size_t j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(pa[i]->value[j], pb[i]->value[j]) << pa[i]->name << "[" << j << "]";
    }
  }
}

TEST(Serialize, LoadedModelComputesIdentically) {
  Rng rng(2);
  ResNetConfig rc;
  rc.base_channels = 4;
  auto a = cifar_resnet(rc, rng);
  auto b = cifar_resnet(rc, rng);
  std::stringstream ss;
  save_parameters(ss, *a);
  load_parameters(ss, *b);

  Rng drng(3);
  const Tensor x = Tensor::randn({2, 3, 12, 12}, drng);
  const Tensor ya = a->forward(x, false);
  const Tensor yb = b->forward(x, false);
  for (std::size_t i = 0; i < ya.numel(); ++i) ASSERT_EQ(ya[i], yb[i]);
}

TEST(Serialize, ArchitectureMismatchThrows) {
  Rng rng(4);
  ResNetConfig small, big;
  small.base_channels = 4;
  big.base_channels = 8;
  auto a = cifar_resnet(small, rng);
  auto b = cifar_resnet(big, rng);
  std::stringstream ss;
  save_parameters(ss, *a);
  EXPECT_THROW(load_parameters(ss, *b), std::runtime_error);
}

TEST(Serialize, CorruptStreamThrows) {
  Rng rng(5);
  auto net = mlp(2, 4, 2, 1, rng);
  std::stringstream bad("not a checkpoint at all");
  EXPECT_THROW(load_parameters(bad, *net), std::runtime_error);

  std::stringstream truncated;
  save_parameters(truncated, *net);
  std::string data = truncated.str();
  data.resize(data.size() / 2);
  std::stringstream half(data);
  EXPECT_THROW(load_parameters(half, *net), std::runtime_error);
}

TEST(Serialize, RepeatedOrTruncatedFp32StreamLeavesModelUntouched) {
  expect_bad_streams_leave_model_untouched(/*posit_format=*/false);
}

TEST(Serialize, RepeatedOrTruncatedPositStreamLeavesModelUntouched) {
  expect_bad_streams_leave_model_untouched(/*posit_format=*/true);
}

TEST(Serialize, PositCheckpointQuantizesAndShrinks) {
  Rng rng(6);
  ResNetConfig rc;
  rc.base_channels = 8;
  auto a = cifar_resnet(rc, rng);
  auto b = cifar_resnet(rc, rng);

  std::stringstream ss;
  const std::size_t payload = save_parameters_posit(ss, *a, posit::PositSpec{8, 1});
  // 25% of the FP32 payload (Section IV claim).
  std::size_t fp32_payload = 0;
  for (const Param* p : a->params()) fp32_payload += p->value.numel() * sizeof(float);
  EXPECT_EQ(payload, fp32_payload / 4);

  load_parameters_posit(ss, *b);
  const auto pa = a->params();
  const auto pb = b->params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t j = 0; j < pa[i]->value.numel(); ++j) {
      // Loaded values are the nearest-even posit(8,1) grid points of the
      // originals.
      const float orig = pa[i]->value[j];
      const double want = posit::to_double(posit::from_double(orig, {8, 1}), {8, 1});
      ASSERT_EQ(pb[i]->value[j], static_cast<float>(want == want ? want : 0.0)) << pa[i]->name;
    }
  }
}

TEST(Serialize, FileRoundTrip) {
  Rng rng(7);
  auto a = mlp(2, 8, 2, 1, rng);
  auto b = mlp(2, 8, 2, 1, rng);
  const std::string path = "/tmp/pdnn_ckpt_test.bin";
  save_parameters_file(path, *a);
  load_parameters_file(path, *b);
  const auto pa = a->params();
  const auto pb = b->params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(pa[i]->value[j], pb[i]->value[j]);
    }
  }
  EXPECT_THROW(load_parameters_file("/nonexistent/nope.bin", *b), std::runtime_error);
}

}  // namespace
}  // namespace pdnn::nn
