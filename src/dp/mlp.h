/**
 * @file
 * A ReLU multi-layer perceptron with explicit (autograd-free) backprop,
 * supporting both per-batch and per-example weight-gradient derivation.
 */

#ifndef DIVA_DP_MLP_H
#define DIVA_DP_MLP_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "dp/grads.h"
#include "dp/linear.h"
#include "dp/tensor.h"

namespace diva
{

/** Gradient container matching an Mlp's parameter structure. */
struct MlpGrads : GradsOps<MlpGrads>
{
    std::vector<Tensor> dw;
    std::vector<Tensor> db;

    /** Every dw, then every db. */
    template <typename G>
    static auto
    tensorsOf(G &g)
    {
        std::vector<decltype(&g.dw[0])> out;
        for (auto &t : g.dw)
            out.push_back(&t);
        for (auto &t : g.db)
            out.push_back(&t);
        return out;
    }
};

/** Feed-forward ReLU network ending in raw logits. */
class Mlp
{
  public:
    /**
     * @param dims layer widths, e.g. {16, 64, 64, 10} builds
     *             16->64->64->10 with ReLU between hidden layers.
     */
    Mlp(const std::vector<int> &dims, Rng &rng);

    /** Cached intermediates of one forward pass, needed by backprop. */
    struct Cache
    {
        /** inputs[l]: the input activation of layer l (B x in_l). */
        std::vector<Tensor> inputs;
        /** preacts[l]: pre-ReLU output of layer l (B x out_l). */
        std::vector<Tensor> preacts;
        Tensor logits;
    };

    /** Forward pass; fills `cache` if non-null. */
    Tensor forward(const Tensor &x, Cache *cache = nullptr) const;

    /**
     * Mean loss and the per-example logit gradients (row i holds
     * dL_i/dlogits_i, un-averaged as DP-SGD requires).
     */
    double lossAndLogitGrad(const Tensor &x, const std::vector<int> &y,
                            Cache &cache, Tensor &dlogits) const;

    /** Per-batch backprop: grads summed over the mini-batch. */
    void backwardPerBatch(const Cache &cache, const Tensor &dlogits,
                          MlpGrads &grads) const;

    /**
     * Per-batch backprop with per-example loss-gradient reweighting:
     * row i of dlogits is scaled by weights[i] before the backward
     * pass. This implements DP-SGD(R)'s second pass (Algorithm 1, line
     * 39): the result equals the sum of clipped per-example gradients.
     */
    void backwardReweighted(const Cache &cache, const Tensor &dlogits,
                            const std::vector<double> &weights,
                            MlpGrads &grads) const;

    /** Per-example gradient of example `i` (materialized). */
    void perExampleGrad(const Cache &cache, const Tensor &dlogits,
                        std::int64_t i, MlpGrads &grads) const;

    /**
     * Squared L2 norm of example i's whole-model gradient without
     * materializing it (DP-SGD(R)'s first pass).
     */
    double perExampleGradNormSq(const Cache &cache, const Tensor &dlogits,
                                std::int64_t i) const;

    /** SGD parameter update: w -= lr * grad. */
    void applyUpdate(const MlpGrads &grads, double lr);

    /** Zero-initialized gradient container with matching shapes. */
    MlpGrads zeroGrads() const;

    /** Classification accuracy on (x, y). */
    double accuracy(const Tensor &x, const std::vector<int> &y) const;

    std::vector<Linear> &layersMutable() { return layers_; }
    const std::vector<Linear> &layers() const { return layers_; }
    std::int64_t paramCount() const;

  private:
    /**
     * Per-example activation-gradient chain: returns the list of
     * layer-input gradients for example i, one row per layer.
     */
    std::vector<Tensor> perExampleChain(const Cache &cache,
                                        const Tensor &dlogits,
                                        std::int64_t i) const;

    std::vector<Linear> layers_;
};

} // namespace diva

#endif // DIVA_DP_MLP_H
