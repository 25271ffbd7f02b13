/**
 * @file
 * End-to-end functional DP pipeline test: train a classifier under a
 * privacy budget exactly the way examples/dp_mnist does, asserting
 * learning progress, the privacy guarantee, and the DP-SGD ==
 * DP-SGD(R) model identity over a realistic number of steps.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "dp/accountant.h"
#include "dp/data.h"
#include "dp/mlp.h"
#include "dp/trainer.h"

namespace diva
{
namespace
{

struct Split
{
    Dataset train;
    Dataset test;
};

Split
makeSplit(std::int64_t n_train, std::int64_t n_test, int dim,
          int classes, std::uint64_t seed)
{
    Rng rng(seed);
    const Dataset all = makeSyntheticClassification(
        n_train + n_test, dim, classes, rng, 4.0);
    Split split;
    split.train.numClasses = split.test.numClasses = classes;
    split.train.x = Tensor(n_train, dim);
    split.test.x = Tensor(n_test, dim);
    for (std::int64_t i = 0; i < n_train + n_test; ++i) {
        Dataset &dst = i < n_train ? split.train : split.test;
        const std::int64_t row = i < n_train ? i : i - n_train;
        for (int d = 0; d < dim; ++d)
            dst.x.at(row, d) = all.x.at(i, d);
        dst.y.push_back(all.y[std::size_t(i)]);
    }
    return split;
}

TEST(DpPipeline, TrainsUnderBudgetAndGeneralizes)
{
    const std::int64_t n_train = 2048;
    const std::int64_t batch = 64;
    const int steps = 120;
    const Split split = makeSplit(n_train, 512, 16, 4, 99);

    DpSgdConfig cfg;
    cfg.clipNorm = 1.0;
    cfg.noiseMultiplier = 1.1;
    cfg.learningRate = 0.4;

    Rng init(7);
    Mlp model({16, 32, 4}, init);
    Trainer<Mlp> trainer(model, TrainingAlgorithm::kDpSgdR, cfg);
    RdpAccountant accountant(cfg.noiseMultiplier,
                             double(batch) / double(n_train));

    Rng batch_rng(11);
    Tensor x;
    std::vector<int> y;
    for (int step = 0; step < steps; ++step) {
        sampleBatch(split.train, batch, batch_rng, x, y);
        trainer.step(x, y);
        accountant.addSteps(1);
    }

    // Learned something real on held-out data...
    EXPECT_GT(model.accuracy(split.test.x, split.test.y), 0.7);
    // ...under a single-digit epsilon.
    const double eps = accountant.epsilon(1e-5);
    EXPECT_GT(eps, 0.0);
    EXPECT_LT(eps, 10.0);
}

TEST(DpPipeline, MoreNoiseCostsAccuracyButBuysPrivacy)
{
    const std::int64_t n_train = 2048;
    const std::int64_t batch = 64;
    const int steps = 100;
    const Split split = makeSplit(n_train, 512, 16, 4, 123);

    auto run_with_sigma = [&](double sigma, double &eps_out) {
        DpSgdConfig cfg;
        cfg.clipNorm = 1.0;
        cfg.noiseMultiplier = sigma;
        cfg.learningRate = 0.4;
        Rng init(7);
        Mlp model({16, 32, 4}, init);
        Trainer<Mlp> trainer(model, TrainingAlgorithm::kDpSgdR, cfg);
        RdpAccountant acc(sigma, double(batch) / double(n_train));
        Rng batch_rng(11);
        Tensor x;
        std::vector<int> y;
        for (int step = 0; step < steps; ++step) {
            sampleBatch(split.train, batch, batch_rng, x, y);
            trainer.step(x, y);
            acc.addSteps(1);
        }
        eps_out = acc.epsilon(1e-5);
        return model.accuracy(split.test.x, split.test.y);
    };

    double eps_low = 0.0, eps_high = 0.0;
    const double acc_low_noise = run_with_sigma(0.6, eps_low);
    const double acc_high_noise = run_with_sigma(6.0, eps_high);
    // The privacy-utility trade-off must point the right way.
    EXPECT_LT(eps_high, eps_low);
    EXPECT_GT(acc_low_noise, acc_high_noise - 0.05);
}

TEST(DpPipeline, VanillaAndReweightedStayIdenticalLong)
{
    const Split split = makeSplit(1024, 64, 12, 3, 55);
    DpSgdConfig cfg;
    cfg.clipNorm = 0.8;
    cfg.noiseMultiplier = 1.0;
    cfg.learningRate = 0.3;

    Rng init_a(3), init_b(3);
    Mlp model_a({12, 24, 3}, init_a);
    Mlp model_b({12, 24, 3}, init_b);
    Trainer<Mlp> vanilla(model_a, TrainingAlgorithm::kDpSgd, cfg);
    Trainer<Mlp> reweighted(model_b, TrainingAlgorithm::kDpSgdR, cfg);

    Rng rng_a(9), rng_b(9);
    Tensor xa, xb;
    std::vector<int> ya, yb;
    for (int step = 0; step < 30; ++step) {
        sampleBatch(split.train, 32, rng_a, xa, ya);
        sampleBatch(split.train, 32, rng_b, xb, yb);
        vanilla.step(xa, ya);
        reweighted.step(xb, yb);
    }
    for (std::size_t l = 0; l < model_a.layers().size(); ++l) {
        EXPECT_LT(model_a.layers()[l].weight().maxAbsDiff(
                      model_b.layers()[l].weight()),
                  5e-3)
            << "layer " << l;
    }
    EXPECT_NEAR(model_a.accuracy(split.test.x, split.test.y),
                model_b.accuracy(split.test.x, split.test.y), 0.05);
}

} // namespace
} // namespace diva
