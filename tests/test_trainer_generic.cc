/**
 * @file
 * Tests for the model-generic trainer: its output is pinned to the bit
 * for Mlp and ConvNet, and it must train ConvNets with the same DP
 * guarantees (equivalence, clipping) as MLPs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "dp/convnet.h"
#include "dp/data.h"
#include "dp/mlp.h"
#include "dp/trainer.h"

namespace diva
{
namespace
{

ConvGeometry
smallGeom()
{
    ConvGeometry g;
    g.inChannels = 1;
    g.outChannels = 4;
    g.kernelH = g.kernelW = 3;
    g.stride = 1;
    g.padding = 1;
    g.inH = g.inW = 6;
    return g;
}

/** 64-bit FNV-1a over the exact bits of what a run produces. */
struct Fnv
{
    std::uint64_t h = 14695981039346656037ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 1099511628211ull;
    }
    void f64(double v) { bytes(&v, sizeof v); }
    void
    tensor(const Tensor &t)
    {
        const std::int64_t shape[2] = {t.rows(), t.cols()};
        bytes(shape, sizeof shape);
        bytes(t.data().data(), t.data().size() * sizeof(float));
    }
    void
    result(const DpStepResult &r)
    {
        f64(r.meanLoss);
        f64(double(r.perExampleNorms.size()));
        for (double n : r.perExampleNorms)
            f64(n);
        f64(r.clippedFraction);
    }
    void
    grads(const MlpGrads &g)
    {
        for (const Tensor &t : g.dw)
            tensor(t);
        for (const Tensor &t : g.db)
            tensor(t);
    }
    void
    grads(const ConvNetGrads &g)
    {
        tensor(g.convW);
        tensor(g.convB);
        tensor(g.fcW);
        tensor(g.fcB);
    }
    void
    weights(const Mlp &m)
    {
        for (const Linear &l : m.layers()) {
            tensor(l.weight());
            tensor(l.bias());
        }
    }
    void
    weights(ConvNet &m)
    {
        tensor(m.conv().weight());
        tensor(m.conv().bias());
        tensor(m.fc().weight());
        tensor(m.fc().bias());
    }
};

template <typename Model>
std::uint64_t
weightHash(Model &m)
{
    Fnv fnv;
    fnv.weights(m);
    return fnv.h;
}

/**
 * Train a copy of `init` with `algorithm` for `steps` mini-batches
 * through gradient() + the model's update, hashing every gradient,
 * every step result and the final weights. A twin copy trained through
 * step() must end bit-equal, so the hash pins step() too.
 */
template <typename Model>
std::uint64_t
pinnedRun(const Model &init, TrainingAlgorithm algorithm,
          const Dataset &data, std::int64_t batch, int steps)
{
    DpSgdConfig cfg;
    cfg.clipNorm = 0.5; // some examples clip, some do not
    cfg.noiseMultiplier = 1.0;
    cfg.learningRate = 0.3;
    cfg.noiseSeed = 99;
    Model model = init, twin = init;
    Trainer<Model> trainer(model, algorithm, cfg);
    Trainer<Model> twin_trainer(twin, algorithm, cfg);

    Fnv fnv;
    Rng batch_rng(17);
    Tensor x;
    std::vector<int> y;
    for (int s = 0; s < steps; ++s) {
        sampleBatch(data, batch, batch_rng, x, y);
        auto g = model.zeroGrads();
        fnv.result(trainer.gradient(x, y, g));
        fnv.grads(g);
        model.applyUpdate(g, cfg.learningRate);
        twin_trainer.step(x, y);
    }
    fnv.weights(model);
    EXPECT_EQ(weightHash(model), weightHash(twin));
    return fnv.h;
}

// The trainer's output to the bit, for every algorithm on an Mlp and
// both DP algorithms on a ConvNet: every gradient, every step result
// and the final weights. The constants were captured from the
// separate SGD / DP-SGD / DP-SGD(R) trainer classes this one replaced,
// so a change here changes what the functional library computes. They
// assume IEEE double arithmetic without FMA contraction (the x86-64
// baseline).
TEST(GenericTrainer, PinnedBits)
{
    Rng mlp_data_rng(12);
    const Dataset mlp_data =
        makeSyntheticClassification(256, 8, 4, mlp_data_rng);
    Rng mlp_init_rng(11);
    const Mlp mlp({8, 12, 4}, mlp_init_rng);
    EXPECT_EQ(pinnedRun(mlp, TrainingAlgorithm::kSgd, mlp_data, 16, 20),
              0xc1f3cf12790d9710ull);
    EXPECT_EQ(pinnedRun(mlp, TrainingAlgorithm::kDpSgd, mlp_data, 16, 20),
              0x40d1027aed95e1a9ull);
    EXPECT_EQ(pinnedRun(mlp, TrainingAlgorithm::kDpSgdR, mlp_data, 16, 20),
              0xa22a741928b230d3ull);

    const ConvGeometry geom = smallGeom();
    Rng conv_data_rng(14);
    const Dataset conv_data = makeSyntheticClassification(
        128, int(geom.inChannels * geom.inH * geom.inW), 3, conv_data_rng);
    Rng conv_init_rng(13);
    const ConvNet conv(geom, 3, conv_init_rng);
    EXPECT_EQ(pinnedRun(conv, TrainingAlgorithm::kDpSgd, conv_data, 8, 10),
              0x5c6b6814143d3ee3ull);
    EXPECT_EQ(pinnedRun(conv, TrainingAlgorithm::kDpSgdR, conv_data, 8, 10),
              0xf17529754903314eull);
}

TEST(GenericTrainer, ConvNetEquivalenceVanillaVsReweighted)
{
    const ConvGeometry g = smallGeom();
    Rng rng_a(5), rng_b(5);
    ConvNet model_a(g, 3, rng_a);
    ConvNet model_b(g, 3, rng_b);
    DpSgdConfig cfg;
    cfg.clipNorm = 0.3;
    cfg.noiseMultiplier = 0.7;
    cfg.noiseSeed = 42;
    Trainer<ConvNet> vanilla(model_a, TrainingAlgorithm::kDpSgd, cfg);
    Trainer<ConvNet> reweighted(model_b, TrainingAlgorithm::kDpSgdR, cfg);

    Rng data(6);
    Dataset ds = makeSyntheticClassification(
        8, int(g.inChannels * g.inH * g.inW), 3, data);
    ConvNetGrads ga = model_a.zeroGrads();
    ConvNetGrads gb = model_b.zeroGrads();
    const DpStepResult ra = vanilla.gradient(ds.x, ds.y, ga);
    const DpStepResult rb = reweighted.gradient(ds.x, ds.y, gb);

    EXPECT_NEAR(ra.meanLoss, rb.meanLoss, 1e-9);
    EXPECT_DOUBLE_EQ(ra.clippedFraction, rb.clippedFraction);
    for (std::size_t i = 0; i < ra.perExampleNorms.size(); ++i)
        EXPECT_NEAR(ra.perExampleNorms[i], rb.perExampleNorms[i],
                    1e-4);
    EXPECT_LT(ga.maxAbsDiff(gb), 1e-4);
}

TEST(GenericTrainer, ConvNetClippedAggregateRespectsBound)
{
    const ConvGeometry g = smallGeom();
    Rng rng(7);
    ConvNet model(g, 3, rng);
    DpSgdConfig cfg;
    cfg.clipNorm = 0.05;
    cfg.noiseMultiplier = 0.0;
    Trainer<ConvNet> trainer(model, TrainingAlgorithm::kDpSgd, cfg);
    Rng data(8);
    Dataset ds = makeSyntheticClassification(
        16, int(g.inChannels * g.inH * g.inW), 3, data);
    ConvNetGrads grads = model.zeroGrads();
    const DpStepResult r = trainer.gradient(ds.x, ds.y, grads);
    EXPECT_NEAR(r.clippedFraction, 1.0, 1e-9);
    EXPECT_LE(std::sqrt(grads.l2NormSq()), cfg.clipNorm + 1e-6);
}

TEST(GenericTrainer, ConvNetStepImprovesLoss)
{
    const ConvGeometry g = smallGeom();
    Rng rng(9);
    ConvNet model(g, 3, rng);
    DpSgdConfig cfg;
    cfg.clipNorm = 1.0;
    cfg.noiseMultiplier = 0.3;
    cfg.learningRate = 0.1;
    Trainer<ConvNet> trainer(model, TrainingAlgorithm::kDpSgdR, cfg);
    Rng data(10);
    Dataset ds = makeSyntheticClassification(
        256, int(g.inChannels * g.inH * g.inW), 3, data, 4.0);
    Rng batch_rng(11);
    Tensor x;
    std::vector<int> y;
    double first = 0.0, last = 0.0;
    for (int step = 0; step < 40; ++step) {
        sampleBatch(ds, 16, batch_rng, x, y);
        const DpStepResult r = trainer.step(x, y);
        if (step == 0)
            first = r.meanLoss;
        last = r.meanLoss;
    }
    EXPECT_LT(last, first);
}

} // namespace
} // namespace diva
