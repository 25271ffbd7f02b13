/**
 * @file
 * A small convolutional classifier (conv -> ReLU -> linear) with the
 * same explicit per-batch / per-example gradient interfaces as Mlp.
 * This closes the loop on the paper's CNN benchmarks: the functional
 * library can derive, clip and reweight *convolutional* per-example
 * gradients, exercising the Figure-6 conv GEMM algebra end to end.
 */

#ifndef DIVA_DP_CONVNET_H
#define DIVA_DP_CONVNET_H

#include <array>
#include <vector>

#include "common/rng.h"
#include "dp/conv2d.h"
#include "dp/grads.h"
#include "dp/linear.h"
#include "dp/tensor.h"

namespace diva
{

/** Gradient container matching a ConvNet's parameters. */
struct ConvNetGrads : GradsOps<ConvNetGrads>
{
    Tensor convW;
    Tensor convB;
    Tensor fcW;
    Tensor fcB;

    template <typename G>
    static auto
    tensorsOf(G &g)
    {
        return std::array{&g.convW, &g.convB, &g.fcW, &g.fcB};
    }
};

/** conv2d -> ReLU -> flatten -> linear classifier. */
class ConvNet
{
  public:
    ConvNet(const ConvGeometry &geometry, int num_classes, Rng &rng);

    /** Intermediates of one forward pass. */
    struct Cache
    {
        Tensor input;    ///< (B, Cin*H*W)
        Tensor convOut;  ///< pre-ReLU conv output (B, Cout*P*Q)
        Tensor reluOut;  ///< post-ReLU (B, Cout*P*Q)
        Tensor logits;
    };

    Tensor forward(const Tensor &x, Cache *cache = nullptr) const;

    /** Mean loss + un-averaged per-example logit gradients. */
    double lossAndLogitGrad(const Tensor &x, const std::vector<int> &y,
                            Cache &cache, Tensor &dlogits) const;

    /** Per-example gradient of example i. */
    void perExampleGrad(const Cache &cache, const Tensor &dlogits,
                        std::int64_t i, ConvNetGrads &grads) const;

    /** Squared norm of example i's whole-model gradient. */
    double perExampleGradNormSq(const Cache &cache,
                                const Tensor &dlogits,
                                std::int64_t i) const;

    /**
     * Per-batch backward pass with per-example reweighting (DP-SGD(R)
     * second pass); unit weights give the plain per-batch gradient.
     */
    void backwardReweighted(const Cache &cache, const Tensor &dlogits,
                            const std::vector<double> &weights,
                            ConvNetGrads &grads) const;

    void applyUpdate(const ConvNetGrads &grads, double lr);

    ConvNetGrads zeroGrads() const;

    double accuracy(const Tensor &x, const std::vector<int> &y) const;

    std::int64_t paramCount() const
    {
        return conv_.paramCount() + fc_.paramCount();
    }

    Conv2d &conv() { return conv_; }
    Linear &fc() { return fc_; }

  private:
    /** Per-example conv-output gradient row (through fc and ReLU). */
    Tensor convOutGradRow(const Cache &cache, const Tensor &dlogits,
                          std::int64_t i) const;

    Conv2d conv_;
    Linear fc_;
};

} // namespace diva

#endif // DIVA_DP_CONVNET_H
