/**
 * @file
 * Tests for the GEMM shape statistics (the quantified form of
 * Section III-C's small-K diagnosis).
 */

#include <gtest/gtest.h>

#include "gemm/shape_stats.h"
#include "models/zoo.h"
#include "train/planner.h"

namespace diva
{
namespace
{

TEST(ShapeStats, BucketBoundaries)
{
    EXPECT_EQ(KDimHistogram::bucketFor(1), 0u);
    EXPECT_EQ(KDimHistogram::bucketFor(2), 1u);
    EXPECT_EQ(KDimHistogram::bucketFor(8), 1u);
    EXPECT_EQ(KDimHistogram::bucketFor(32), 2u);
    EXPECT_EQ(KDimHistogram::bucketFor(128), 3u);
    EXPECT_EQ(KDimHistogram::bucketFor(512), 4u);
    EXPECT_EQ(KDimHistogram::bucketFor(513), 5u);
    EXPECT_STREQ(KDimHistogram::bucketLabel(0), "K=1");
    EXPECT_STREQ(KDimHistogram::bucketLabel(5), "K>512");
}

TEST(ShapeStats, SgdHasFewSmallKGemms)
{
    // Non-private SGD on an MLP-free CNN: weight-grad GEMMs carry
    // B*P*Q in K, so small-K GEMMs are rare.
    const ShapeStats stats = collectShapeStats(
        buildOpStream(resnet50(), TrainingAlgorithm::kSgd, 64));
    EXPECT_LT(stats.smallKFraction(), 0.2);
}

TEST(ShapeStats, DpSgdFloodsStreamWithSmallK)
{
    // Section III-C quantified: the per-example wgrad GEMMs dominate
    // the GEMM count and sit in the small-K buckets.
    const ShapeStats sgd = collectShapeStats(
        buildOpStream(vgg16(), TrainingAlgorithm::kSgd, 64));
    const ShapeStats dp = collectShapeStats(
        buildOpStream(vgg16(), TrainingAlgorithm::kDpSgd, 64));
    EXPECT_GT(dp.totalGemms, sgd.totalGemms);
    EXPECT_GT(dp.smallKFraction(), sgd.smallKFraction());
}

TEST(ShapeStats, MlpPerExampleGemmsAreAllK1)
{
    Network net;
    net.name = "mlp";
    net.inputElemsPerExample = 64;
    net.layers.push_back(Layer::linear("fc1", 64, 128));
    net.layers.push_back(Layer::linear("fc2", 128, 10));
    const ShapeStats stats = collectShapeStats(
        buildOpStream(net, TrainingAlgorithm::kDpSgd, 16));
    // Every per-example GEMM of a plain MLP has K = 1 (Figure 6).
    EXPECT_EQ(stats.perExample.counts[0],
              stats.perExample.totalGemms);
    EXPECT_EQ(stats.perExample.totalGemms, 2u * 16u);
}

TEST(ShapeStats, PerExampleCountScalesWithBatch)
{
    const ShapeStats b16 = collectShapeStats(
        buildOpStream(resnet50(), TrainingAlgorithm::kDpSgdR, 16));
    const ShapeStats b64 = collectShapeStats(
        buildOpStream(resnet50(), TrainingAlgorithm::kDpSgdR, 64));
    EXPECT_EQ(b64.perExample.totalGemms, 4 * b16.perExample.totalGemms);
}

TEST(ShapeStats, CumulativeFractionMonotonic)
{
    const ShapeStats stats = collectShapeStats(
        buildOpStream(bertBase(), TrainingAlgorithm::kDpSgdR, 8));
    double prev = 0.0;
    for (std::size_t b = 0; b < KDimHistogram::kNumBuckets; ++b) {
        const double f = stats.all.cumulativeFraction(b);
        EXPECT_GE(f, prev);
        prev = f;
    }
    EXPECT_NEAR(prev, 1.0, 1e-12);
}

} // namespace
} // namespace diva
