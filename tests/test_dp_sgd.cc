/**
 * @file
 * Property tests for the trainer's three algorithms, headlined by the paper's
 * Algorithm-1 equivalence: DP-SGD and DP-SGD(R) must produce the same
 * noisy gradient (and the same trained model) given the same seed.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "dp/data.h"
#include "dp/mlp.h"
#include "dp/trainer.h"

namespace diva
{
namespace
{

struct Problem
{
    Tensor x;
    std::vector<int> y;
};

Problem
makeProblem(std::int64_t batch, int dim, int classes,
            std::uint64_t seed)
{
    Rng rng(seed);
    Dataset data =
        makeSyntheticClassification(batch, dim, classes, rng);
    return {std::move(data.x), std::move(data.y)};
}

TEST(DpSgd, ConfigValidation)
{
    Rng rng(1);
    Mlp model({4, 3}, rng);
    DpSgdConfig cfg;
    cfg.clipNorm = 0.0;
    EXPECT_THROW(Trainer<Mlp>(model, TrainingAlgorithm::kDpSgd, cfg),
                 std::logic_error);
}

TEST(DpSgd, ClippedNormsRespectBound)
{
    Rng rng(2);
    Mlp model({8, 16, 4}, rng);
    DpSgdConfig cfg;
    cfg.clipNorm = 0.1; // aggressive: everything should clip
    cfg.noiseMultiplier = 0.0;
    Trainer<Mlp> trainer(model, TrainingAlgorithm::kDpSgd, cfg);

    const Problem p = makeProblem(16, 8, 4, 3);
    MlpGrads grads = model.zeroGrads();
    const DpStepResult r = trainer.gradient(p.x, p.y, grads);

    // With everything clipped, the aggregate norm is at most B*C/B = C.
    EXPECT_NEAR(r.clippedFraction, 1.0, 1e-9);
    EXPECT_LE(std::sqrt(grads.l2NormSq()), cfg.clipNorm + 1e-6);
}

TEST(DpSgd, LooseClipBoundIsNoOp)
{
    Rng rng(4);
    Mlp model({8, 16, 4}, rng);
    DpSgdConfig cfg;
    cfg.clipNorm = 1e6;
    cfg.noiseMultiplier = 0.0;
    Trainer<Mlp> dp(model, TrainingAlgorithm::kDpSgd, cfg);

    const Problem p = makeProblem(12, 8, 4, 5);
    MlpGrads dp_grads = model.zeroGrads();
    const DpStepResult r = dp.gradient(p.x, p.y, dp_grads);
    EXPECT_DOUBLE_EQ(r.clippedFraction, 0.0);

    // Without clipping or noise, DP-SGD reduces to plain SGD's
    // averaged per-batch gradient.
    Mlp::Cache cache;
    Tensor dlogits;
    model.lossAndLogitGrad(p.x, p.y, cache, dlogits);
    MlpGrads sgd_grads = model.zeroGrads();
    model.backwardPerBatch(cache, dlogits, sgd_grads);
    sgd_grads.scale(1.0 / 12.0);
    EXPECT_LT(dp_grads.maxAbsDiff(sgd_grads), 1e-5);
}

TEST(DpSgd, PerExampleNormsReported)
{
    Rng rng(5);
    Mlp model({6, 10, 3}, rng);
    DpSgdConfig cfg;
    cfg.noiseMultiplier = 0.0;
    Trainer<Mlp> trainer(model, TrainingAlgorithm::kDpSgd, cfg);
    const Problem p = makeProblem(9, 6, 3, 6);
    MlpGrads grads = model.zeroGrads();
    const DpStepResult r = trainer.gradient(p.x, p.y, grads);
    ASSERT_EQ(r.perExampleNorms.size(), 9u);
    for (double n : r.perExampleNorms)
        EXPECT_GT(n, 0.0);
}

/**
 * The central equivalence property (Algorithm 1 / Lee & Kifer): with
 * identical seeds, vanilla DP-SGD and reweighted DP-SGD(R) derive the
 * same noisy gradient, for any clip bound and noise level.
 */
class DpEquivalence
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(DpEquivalence, NoisyGradientsMatch)
{
    const auto [clip, sigma] = GetParam();
    Rng rng_a(7), rng_b(7);
    Mlp model_a({8, 12, 4}, rng_a);
    Mlp model_b({8, 12, 4}, rng_b);

    DpSgdConfig cfg;
    cfg.clipNorm = clip;
    cfg.noiseMultiplier = sigma;
    cfg.noiseSeed = 99;

    Trainer<Mlp> vanilla(model_a, TrainingAlgorithm::kDpSgd, cfg);
    Trainer<Mlp> reweighted(model_b, TrainingAlgorithm::kDpSgdR, cfg);

    const Problem p = makeProblem(10, 8, 4, 8);
    MlpGrads g_vanilla = model_a.zeroGrads();
    MlpGrads g_reweighted = model_b.zeroGrads();
    const DpStepResult ra = vanilla.gradient(p.x, p.y, g_vanilla);
    const DpStepResult rb =
        reweighted.gradient(p.x, p.y, g_reweighted);

    EXPECT_NEAR(ra.meanLoss, rb.meanLoss, 1e-9);
    EXPECT_DOUBLE_EQ(ra.clippedFraction, rb.clippedFraction);
    for (std::size_t i = 0; i < ra.perExampleNorms.size(); ++i)
        EXPECT_NEAR(ra.perExampleNorms[i], rb.perExampleNorms[i], 1e-4);
    EXPECT_LT(g_vanilla.maxAbsDiff(g_reweighted), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    ClipAndNoise, DpEquivalence,
    ::testing::Combine(::testing::Values(0.05, 0.5, 1.0, 10.0),
                       ::testing::Values(0.0, 0.5, 2.0)));

TEST(DpEquivalenceTraining, ModelsStayIdenticalOverSteps)
{
    Rng rng_a(20), rng_b(20);
    Mlp model_a({6, 10, 3}, rng_a);
    Mlp model_b({6, 10, 3}, rng_b);
    DpSgdConfig cfg;
    cfg.clipNorm = 0.5;
    cfg.noiseMultiplier = 0.8;
    cfg.learningRate = 0.3;
    Trainer<Mlp> vanilla(model_a, TrainingAlgorithm::kDpSgd, cfg);
    Trainer<Mlp> reweighted(model_b, TrainingAlgorithm::kDpSgdR, cfg);

    Rng data_rng(21);
    Dataset data = makeSyntheticClassification(256, 6, 3, data_rng);
    Rng batch_rng_a(22), batch_rng_b(22);
    Tensor xa, xb;
    std::vector<int> ya, yb;
    for (int step = 0; step < 5; ++step) {
        sampleBatch(data, 16, batch_rng_a, xa, ya);
        sampleBatch(data, 16, batch_rng_b, xb, yb);
        vanilla.step(xa, ya);
        reweighted.step(xb, yb);
    }
    for (std::size_t l = 0; l < model_a.layers().size(); ++l) {
        EXPECT_LT(model_a.layers()[l].weight().maxAbsDiff(
                      model_b.layers()[l].weight()),
                  1e-3);
    }
}

TEST(DpSgd, NoiseHasExpectedMagnitude)
{
    Rng rng(30);
    Mlp model({4, 3}, rng);
    DpSgdConfig cfg;
    cfg.clipNorm = 1.0;
    cfg.noiseMultiplier = 5.0; // dominate the signal
    Trainer<Mlp> trainer(model, TrainingAlgorithm::kDpSgd, cfg);
    const Problem p = makeProblem(8, 4, 3, 31);
    MlpGrads grads = model.zeroGrads();
    trainer.gradient(p.x, p.y, grads);
    // After averaging by B, noise stddev per coord ~ sigma*C/B = 0.625.
    const double rms =
        std::sqrt(grads.l2NormSq() / double(model.paramCount()));
    EXPECT_GT(rms, 0.3);
    EXPECT_LT(rms, 1.2);
}

TEST(DpSgd, ZeroNoiseIsDeterministic)
{
    Rng rng_a(40), rng_b(40);
    Mlp model_a({5, 4}, rng_a);
    Mlp model_b({5, 4}, rng_b);
    DpSgdConfig cfg;
    cfg.noiseMultiplier = 0.0;
    Trainer<Mlp> ta(model_a, TrainingAlgorithm::kDpSgd, cfg);
    Trainer<Mlp> tb(model_b, TrainingAlgorithm::kDpSgd, cfg);
    const Problem p = makeProblem(6, 5, 4, 41);
    MlpGrads ga = model_a.zeroGrads(), gb = model_b.zeroGrads();
    ta.gradient(p.x, p.y, ga);
    tb.gradient(p.x, p.y, gb);
    EXPECT_DOUBLE_EQ(ga.maxAbsDiff(gb), 0.0);
}

TEST(DpSgd, TrainingReducesLossOnSeparableData)
{
    Rng rng(50);
    Mlp model({8, 16, 3}, rng);
    DpSgdConfig cfg;
    cfg.clipNorm = 1.0;
    cfg.noiseMultiplier = 0.5;
    cfg.learningRate = 0.5;
    Trainer<Mlp> trainer(model, TrainingAlgorithm::kDpSgdR, cfg);

    Rng data_rng(51);
    Dataset data =
        makeSyntheticClassification(512, 8, 3, data_rng, 4.0);
    Rng batch_rng(52);
    Tensor x;
    std::vector<int> y;
    double first_loss = 0.0, last_loss = 0.0;
    for (int step = 0; step < 60; ++step) {
        sampleBatch(data, 32, batch_rng, x, y);
        const DpStepResult r = trainer.step(x, y);
        if (step == 0)
            first_loss = r.meanLoss;
        last_loss = r.meanLoss;
    }
    EXPECT_LT(last_loss, first_loss);
    EXPECT_GT(model.accuracy(data.x, data.y), 0.7);
}

TEST(SgdTrainer, ConvergesOnSeparableData)
{
    Rng rng(60);
    Mlp model({8, 16, 3}, rng);
    DpSgdConfig cfg;
    cfg.learningRate = 0.5;
    Trainer<Mlp> trainer(model, TrainingAlgorithm::kSgd, cfg);
    Rng data_rng(61);
    Dataset data =
        makeSyntheticClassification(512, 8, 3, data_rng, 4.0);
    Rng batch_rng(62);
    Tensor x;
    std::vector<int> y;
    for (int step = 0; step < 150; ++step) {
        sampleBatch(data, 32, batch_rng, x, y);
        trainer.step(x, y);
    }
    EXPECT_GT(model.accuracy(data.x, data.y), 0.8);
}

TEST(Dataset, SyntheticGeneratorShapes)
{
    Rng rng(70);
    const Dataset data = makeSyntheticClassification(100, 5, 4, rng);
    EXPECT_EQ(data.size(), 100);
    EXPECT_EQ(data.x.cols(), 5);
    EXPECT_EQ(data.numClasses, 4);
    for (int label : data.y) {
        EXPECT_GE(label, 0);
        EXPECT_LT(label, 4);
    }
}

TEST(Dataset, SampleBatchShapes)
{
    Rng rng(71);
    const Dataset data = makeSyntheticClassification(50, 3, 2, rng);
    Tensor x;
    std::vector<int> y;
    sampleBatch(data, 8, rng, x, y);
    EXPECT_EQ(x.rows(), 8);
    EXPECT_EQ(x.cols(), 3);
    EXPECT_EQ(y.size(), 8u);
}

} // namespace
} // namespace diva
