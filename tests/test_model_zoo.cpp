#include <gtest/gtest.h>

#include "dnn/model_zoo.hpp"

namespace prophet::dnn {
namespace {

// Published parameter counts (torchvision, 1000-class ImageNet heads).
struct ZooCase {
  const char* name;
  std::int64_t expected_params;
  double tolerance;  // relative
};

// Without this gtest prints the raw bytes of `name`, a pointer, into each
// case's listed name, so the registered ctest names would change with every
// load address.
void PrintTo(const ZooCase& c, std::ostream* os) { *os << '"' << c.name << '"'; }

class ModelZooParams : public ::testing::TestWithParam<ZooCase> {};

TEST_P(ModelZooParams, ParameterCountMatchesPublished) {
  const ZooCase& c = GetParam();
  const ModelSpec model = model_by_name(c.name);
  const auto params = model.parameter_count();
  EXPECT_NEAR(static_cast<double>(params), static_cast<double>(c.expected_params),
              c.tolerance * static_cast<double>(c.expected_params))
      << model.name() << " has " << params << " params";
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelZooParams,
    ::testing::Values(ZooCase{"resnet18", 11'689'512, 0.001},
                      ZooCase{"resnet50", 25'557'032, 0.001},
                      ZooCase{"resnet152", 60'192'808, 0.001},
                      ZooCase{"inception_v3", 23'834'568, 0.02},
                      ZooCase{"vgg19", 143'667'240, 0.001},
                      ZooCase{"alexnet", 61'100'840, 0.001},
                      ZooCase{"mobilenet_v1", 4'231'976, 0.02},
                      ZooCase{"bert_base", 109'482'240, 0.02}),
    [](const auto& param_info) { return std::string{param_info.param.name}; });

TEST(ModelZoo, TensorCountsAreArchitecturePlausible) {
  // ResNet50: 53 convs + 53 BN pairs + fc w/b = 161 tensors; the paper's
  // Fig. 4 observes gradient indices up to ~156 for ResNet50 under MXNet.
  EXPECT_EQ(resnet50().tensor_count(), 161u);
  // VGG19: 16 convs + 3 fc, each weight+bias = 38 tensors.
  EXPECT_EQ(vgg19().tensor_count(), 38u);
  EXPECT_EQ(resnet18().tensor_count(), 62u);
  EXPECT_GT(resnet152().tensor_count(), 400u);
}

TEST(ModelZoo, FlopsOrderingMatchesKnownRanking) {
  // Forward FLOPs (2x MAC convention): R18 < R50 < inception-ish < R152 < VGG19.
  const double r18 = resnet18().total_fwd_gflops();
  const double r50 = resnet50().total_fwd_gflops();
  const double r152 = resnet152().total_fwd_gflops();
  const double vgg = vgg19().total_fwd_gflops();
  EXPECT_LT(r18, r50);
  EXPECT_LT(r50, r152);
  EXPECT_LT(r152, vgg);
  // Published MAC counts x2: ~3.6, ~8.2, ~23, ~39 GFLOPs.
  EXPECT_NEAR(r18, 3.6, 0.4);
  EXPECT_NEAR(r50, 8.2, 0.5);
  EXPECT_NEAR(r152, 23.1, 1.0);
  EXPECT_NEAR(vgg, 39.3, 1.0);
}

TEST(ModelZoo, TensorZeroIsTheInputConv) {
  const ModelSpec m = resnet50();
  EXPECT_EQ(m.tensor(0).name, "conv1.weight");
  // 7x7x3x64 weights.
  EXPECT_EQ(m.tensor(0).bytes.count(), 7 * 7 * 3 * 64 * 4);
}

TEST(ModelZoo, StagesAreMonotoneNonDecreasing) {
  for (const auto& name : model_names()) {
    const ModelSpec m = model_by_name(name);
    int prev = 0;
    for (const auto& t : m.tensors()) {
      EXPECT_GE(t.stage, prev) << name << " tensor " << t.name;
      prev = t.stage;
    }
    EXPECT_GE(m.stage_count(), 2) << name;
  }
}

TEST(ModelZoo, ResNet50StageCountMatchesResidualBlocks) {
  // conv1 stage + 16 bottleneck blocks + classifier stage = 18.
  EXPECT_EQ(resnet50().stage_count(), 18);
  // conv1 + 8 basic blocks + classifier = 10.
  EXPECT_EQ(resnet18().stage_count(), 10);
}

TEST(ModelZoo, AllTensorsHavePositiveSizes) {
  for (const auto& name : model_names()) {
    const ModelSpec m = model_by_name(name);
    for (const auto& t : m.tensors()) {
      EXPECT_GT(t.bytes.count(), 0) << name << " " << t.name;
      EXPECT_GE(t.fwd_gflops, 0.0);
    }
    EXPECT_GT(m.total_bytes().count(), 0);
  }
}

TEST(ModelZoo, BertStructure) {
  const ModelSpec bert = bert_base();
  // Embeddings stage + 12 encoder layers + pooler = 14 stages.
  EXPECT_EQ(bert.stage_count(), 14);
  // 4 embedding tensors + 12 x 16 per layer + pooler w/b.
  EXPECT_EQ(bert.tensor_count(), 4u + 12u * 16u + 2u);
  EXPECT_EQ(bert.tensor(0).name, "embeddings.word");
  // Longer sequences cost more compute, parameters unchanged.
  EXPECT_GT(bert_base(512).total_fwd_gflops(), bert.total_fwd_gflops());
  EXPECT_EQ(bert_base(512).parameter_count(), bert.parameter_count());
}

TEST(ModelZoo, MobilenetDepthwiseStructure) {
  const ModelSpec m = mobilenet_v1();
  // conv0 (3 tensors) + 13 x (dw 3 + pw 3) + fc w/b = 83 tensors.
  EXPECT_EQ(m.tensor_count(), 83u);
  // A depthwise weight is k*k*channels parameters (no cross-channel mixing):
  // block0.dw over 32 channels = 3*3*32 floats.
  for (const auto& t : m.tensors()) {
    if (t.name == "block0.dw.weight") {
      EXPECT_EQ(t.bytes.count(), 3 * 3 * 32 * 4);
      return;
    }
  }
  FAIL() << "block0.dw.weight not found";
}

TEST(ModelZoo, AlexNetFcHeavy) {
  const ModelSpec m = alexnet();
  // The three FC layers hold the overwhelming majority of the parameters —
  // the classic pathological case for FIFO transfer ordering.
  Bytes fc_bytes{};
  for (const auto& t : m.tensors()) {
    if (t.name.rfind("fc", 0) == 0) fc_bytes += t.bytes;
  }
  EXPECT_GT(fc_bytes.count(), (m.total_bytes().count() * 9) / 10);
}

TEST(ModelZoo, ByNameRoundTrip) {
  for (const auto& name : model_names()) {
    EXPECT_EQ(model_by_name(name).name(), name);
  }
}

TEST(ModelZooDeath, UnknownNameAborts) {
  EXPECT_DEATH((void)model_by_name("alexnet9000"), "unknown model name");
}

TEST(ModelZoo, VggHasNoBatchNormAndBiasedConvs) {
  const ModelSpec m = vgg19();
  for (const auto& t : m.tensors()) {
    EXPECT_EQ(t.name.find(".bn."), std::string::npos) << t.name;
  }
  // First conv: 3x3x3x64 weights; its bias is a separate key.
  EXPECT_EQ(m.tensor(0).bytes.count(), 3 * 3 * 3 * 64 * 4);
  EXPECT_EQ(m.tensor(1).name, "conv0.bias");
}

}  // namespace
}  // namespace prophet::dnn
