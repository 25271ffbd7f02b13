#include "dp/mlp.h"

#include "common/logging.h"
#include "dp/ops.h"

namespace diva
{

namespace
{

/** Extract row `i` of `t` as a (1 x cols) tensor. */
Tensor
row(const Tensor &t, std::int64_t i)
{
    Tensor r(1, t.cols());
    for (std::int64_t j = 0; j < t.cols(); ++j)
        r.at(0, j) = t.at(i, j);
    return r;
}

} // namespace

Mlp::Mlp(const std::vector<int> &dims, Rng &rng)
{
    DIVA_ASSERT(dims.size() >= 2, "an MLP needs at least one layer");
    for (std::size_t i = 0; i + 1 < dims.size(); ++i)
        layers_.emplace_back(dims[i], dims[i + 1], rng);
}

Tensor
Mlp::forward(const Tensor &x, Cache *cache) const
{
    if (cache) {
        cache->inputs.clear();
        cache->preacts.clear();
    }
    Tensor act = x;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        if (cache)
            cache->inputs.push_back(act);
        Tensor z = layers_[l].forward(act);
        if (cache)
            cache->preacts.push_back(z);
        const bool last = (l + 1 == layers_.size());
        act = last ? z : reluForward(z);
    }
    if (cache)
        cache->logits = act;
    return act;
}

double
Mlp::lossAndLogitGrad(const Tensor &x, const std::vector<int> &y,
                      Cache &cache, Tensor &dlogits) const
{
    const Tensor logits = forward(x, &cache);
    return softmaxCrossEntropy(logits, y, dlogits);
}

void
Mlp::backwardPerBatch(const Cache &cache, const Tensor &dlogits,
                      MlpGrads &grads) const
{
    const std::vector<double> ones(std::size_t(dlogits.rows()), 1.0);
    backwardReweighted(cache, dlogits, ones, grads);
}

void
Mlp::backwardReweighted(const Cache &cache, const Tensor &dlogits,
                        const std::vector<double> &weights,
                        MlpGrads &grads) const
{
    DIVA_ASSERT(std::size_t(dlogits.rows()) == weights.size());
    DIVA_ASSERT(cache.inputs.size() == layers_.size());

    // Seed the backward pass with per-example reweighted logit grads
    // (Algorithm 1, line 35: L' = sum_i r_i * L_i).
    Tensor g = dlogits;
    for (std::int64_t i = 0; i < g.rows(); ++i)
        for (std::int64_t j = 0; j < g.cols(); ++j)
            g.at(i, j) = float(double(g.at(i, j)) *
                               weights[std::size_t(i)]);

    grads = zeroGrads();
    for (std::size_t l = layers_.size(); l-- > 0;) {
        layers_[l].perBatchGrad(cache.inputs[l], g, grads.dw[l],
                                grads.db[l]);
        if (l > 0) {
            Tensor gx = layers_[l].backwardInput(g);
            g = reluBackward(cache.preacts[l - 1], gx);
        }
    }
}

std::vector<Tensor>
Mlp::perExampleChain(const Cache &cache, const Tensor &dlogits,
                     std::int64_t i) const
{
    std::vector<Tensor> chain(layers_.size());
    Tensor g = row(dlogits, i);
    for (std::size_t l = layers_.size(); l-- > 0;) {
        chain[l] = g;
        if (l > 0) {
            Tensor gx = layers_[l].backwardInput(g);
            g = reluBackward(row(cache.preacts[l - 1], i), gx);
        }
    }
    return chain;
}

void
Mlp::perExampleGrad(const Cache &cache, const Tensor &dlogits,
                    std::int64_t i, MlpGrads &grads) const
{
    const std::vector<Tensor> chain = perExampleChain(cache, dlogits, i);
    grads = zeroGrads();
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const Tensor xi = row(cache.inputs[l], i);
        layers_[l].perExampleGrad(xi, chain[l], 0, grads.dw[l],
                                  grads.db[l]);
    }
}

double
Mlp::perExampleGradNormSq(const Cache &cache, const Tensor &dlogits,
                          std::int64_t i) const
{
    const std::vector<Tensor> chain = perExampleChain(cache, dlogits, i);
    double acc = 0.0;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const Tensor xi = row(cache.inputs[l], i);
        acc += layers_[l].perExampleGradNormSq(xi, chain[l], 0);
    }
    return acc;
}

void
Mlp::applyUpdate(const MlpGrads &grads, double lr)
{
    DIVA_ASSERT(grads.dw.size() == layers_.size());
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        layers_[l].weight().addScaled(grads.dw[l], -lr);
        layers_[l].bias().addScaled(grads.db[l], -lr);
    }
}

MlpGrads
Mlp::zeroGrads() const
{
    MlpGrads g;
    for (const auto &layer : layers_) {
        g.dw.emplace_back(layer.inFeatures(), layer.outFeatures());
        g.db.emplace_back(1, layer.outFeatures());
    }
    return g;
}

double
Mlp::accuracy(const Tensor &x, const std::vector<int> &y) const
{
    const Tensor logits = forward(x);
    std::int64_t correct = 0;
    for (std::int64_t i = 0; i < logits.rows(); ++i) {
        std::int64_t best = 0;
        for (std::int64_t j = 1; j < logits.cols(); ++j)
            if (logits.at(i, j) > logits.at(i, best))
                best = j;
        if (best == y[std::size_t(i)])
            ++correct;
    }
    return double(correct) / double(logits.rows());
}

std::int64_t
Mlp::paramCount() const
{
    std::int64_t total = 0;
    for (const auto &layer : layers_)
        total += layer.paramCount();
    return total;
}

} // namespace diva
