/**
 * @file
 * Functional DP-SGD training demo: trains an MLP classifier on a
 * synthetic 10-class task with both DP-SGD and DP-SGD(R), verifying
 * that the two algorithms produce the same model, and reports the
 * (epsilon, delta) privacy guarantee from the RDP accountant -- the
 * software side of Algorithm 1.
 */

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "dp/accountant.h"
#include "dp/data.h"
#include "dp/mlp.h"
#include "dp/trainer.h"

using namespace diva;

int
main()
{
    // Synthetic "MNIST-like" task: 10 Gaussian clusters in 32-D.
    const std::int64_t train_size = 4096;
    const int dim = 32;
    const int classes = 10;
    const std::int64_t batch = 64;
    const int steps = 300;

    // Generate one dataset and split it so train and test share the
    // same class clusters.
    const std::int64_t test_size = 1024;
    Rng data_rng(1234);
    const Dataset all = makeSyntheticClassification(
        train_size + test_size, dim, classes, data_rng, 4.0);
    Dataset train, test;
    train.numClasses = test.numClasses = classes;
    train.x = Tensor(train_size, dim);
    test.x = Tensor(test_size, dim);
    for (std::int64_t i = 0; i < train_size + test_size; ++i) {
        Dataset &dst = i < train_size ? train : test;
        const std::int64_t row = i < train_size ? i : i - train_size;
        for (int d = 0; d < dim; ++d)
            dst.x.at(row, d) = all.x.at(i, d);
        dst.y.push_back(all.y[std::size_t(i)]);
    }

    DpSgdConfig cfg;
    cfg.clipNorm = 1.0;
    cfg.noiseMultiplier = 1.1;
    cfg.learningRate = 0.4;

    Rng init_a(7), init_b(7);
    Mlp model_dp({dim, 64, classes}, init_a);
    Mlp model_dpr({dim, 64, classes}, init_b);
    Trainer<Mlp> vanilla(model_dp, TrainingAlgorithm::kDpSgd, cfg);
    Trainer<Mlp> reweighted(model_dpr, TrainingAlgorithm::kDpSgdR, cfg);

    RdpAccountant accountant(cfg.noiseMultiplier,
                             double(batch) / double(train_size));

    std::printf("training %d steps of DP-SGD (C=%.1f, sigma=%.1f, "
                "B=%lld, N=%lld)\n\n",
                steps, cfg.clipNorm, cfg.noiseMultiplier,
                static_cast<long long>(batch),
                static_cast<long long>(train_size));
    std::printf("%6s %12s %12s %10s %10s\n", "step", "loss(DP-SGD)",
                "loss(DP-R)", "clipped", "epsilon");

    Rng batch_rng_a(99), batch_rng_b(99);
    Tensor xa, xb;
    std::vector<int> ya, yb;
    for (int step = 1; step <= steps; ++step) {
        sampleBatch(train, batch, batch_rng_a, xa, ya);
        sampleBatch(train, batch, batch_rng_b, xb, yb);
        const DpStepResult ra = vanilla.step(xa, ya);
        const DpStepResult rb = reweighted.step(xb, yb);
        accountant.addSteps(1);
        if (step % 50 == 0 || step == 1) {
            std::printf("%6d %12.4f %12.4f %9.0f%% %10.3f\n", step,
                        ra.meanLoss, rb.meanLoss,
                        100.0 * ra.clippedFraction,
                        accountant.epsilon(1e-5));
        }
    }

    // The two DP algorithms must have trained identical models.
    double max_diff = 0.0;
    for (std::size_t l = 0; l < model_dp.layers().size(); ++l) {
        max_diff = std::max(max_diff,
                            model_dp.layers()[l].weight().maxAbsDiff(
                                model_dpr.layers()[l].weight()));
    }

    std::printf("\ntrain accuracy (DP-SGD):    %.1f%%\n",
                100.0 * model_dp.accuracy(train.x, train.y));
    std::printf("test accuracy (DP-SGD):     %.1f%%\n",
                100.0 * model_dp.accuracy(test.x, test.y));
    std::printf("test accuracy (DP-SGD(R)):  %.1f%%\n",
                100.0 * model_dpr.accuracy(test.x, test.y));
    std::printf("max weight divergence DP-SGD vs DP-SGD(R): %.2e\n",
                max_diff);
    std::printf("privacy spent: (epsilon=%.3f, delta=1e-5) at Renyi "
                "order %d\n",
                accountant.epsilon(1e-5), accountant.optimalOrder(1e-5));
    return 0;
}
