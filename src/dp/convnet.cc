#include "dp/convnet.h"

#include "common/logging.h"
#include "dp/ops.h"

namespace diva
{

ConvNet::ConvNet(const ConvGeometry &geometry, int num_classes, Rng &rng)
    : conv_(geometry, rng),
      fc_(int(geometry.outChannels * geometry.outPixels()), num_classes,
          rng)
{
}

Tensor
ConvNet::forward(const Tensor &x, Cache *cache) const
{
    const Tensor conv_out = conv_.forward(x);
    const Tensor relu_out = reluForward(conv_out);
    Tensor logits = fc_.forward(relu_out);
    if (cache) {
        cache->input = x;
        cache->convOut = conv_out;
        cache->reluOut = relu_out;
        cache->logits = logits;
    }
    return logits;
}

double
ConvNet::lossAndLogitGrad(const Tensor &x, const std::vector<int> &y,
                          Cache &cache, Tensor &dlogits) const
{
    const Tensor logits = forward(x, &cache);
    return softmaxCrossEntropy(logits, y, dlogits);
}

Tensor
ConvNet::convOutGradRow(const Cache &cache, const Tensor &dlogits,
                        std::int64_t i) const
{
    // g_fc_in = dlogits_i * fcW^T, masked by the conv ReLU.
    Tensor g(1, dlogits.cols());
    for (std::int64_t j = 0; j < dlogits.cols(); ++j)
        g.at(0, j) = dlogits.at(i, j);
    Tensor gx = fc_.backwardInput(g); // (1, Cout*P*Q)
    for (std::int64_t j = 0; j < gx.cols(); ++j) {
        if (cache.convOut.at(i, j) <= 0.0f)
            gx.at(0, j) = 0.0f;
    }
    return gx;
}

void
ConvNet::perExampleGrad(const Cache &cache, const Tensor &dlogits,
                        std::int64_t i, ConvNetGrads &grads) const
{
    grads = zeroGrads();
    // fc grads from the rank-1 outer product.
    Tensor g_logit(1, dlogits.cols());
    for (std::int64_t j = 0; j < dlogits.cols(); ++j)
        g_logit.at(0, j) = dlogits.at(i, j);
    Tensor relu_row(1, cache.reluOut.cols());
    for (std::int64_t j = 0; j < cache.reluOut.cols(); ++j)
        relu_row.at(0, j) = cache.reluOut.at(i, j);
    fc_.perExampleGrad(relu_row, g_logit, 0, grads.fcW, grads.fcB);

    // conv grads via the Figure-6 per-example GEMM. Extract example
    // i's input row so the row indices of x and grad_y agree.
    Tensor input_row(1, cache.input.cols());
    for (std::int64_t j = 0; j < cache.input.cols(); ++j)
        input_row.at(0, j) = cache.input.at(i, j);
    const Tensor conv_g = convOutGradRow(cache, dlogits, i);
    conv_.perExampleGrad(input_row, conv_g, 0, grads.convW,
                         grads.convB);
}

double
ConvNet::perExampleGradNormSq(const Cache &cache, const Tensor &dlogits,
                              std::int64_t i) const
{
    // fc part has the rank-1 shortcut; the conv part is materialized.
    Tensor g_logit(1, dlogits.cols());
    for (std::int64_t j = 0; j < dlogits.cols(); ++j)
        g_logit.at(0, j) = dlogits.at(i, j);
    Tensor relu_row(1, cache.reluOut.cols());
    for (std::int64_t j = 0; j < cache.reluOut.cols(); ++j)
        relu_row.at(0, j) = cache.reluOut.at(i, j);
    const double fc_sq =
        fc_.perExampleGradNormSq(relu_row, g_logit, 0);

    Tensor input_row(1, cache.input.cols());
    for (std::int64_t j = 0; j < cache.input.cols(); ++j)
        input_row.at(0, j) = cache.input.at(i, j);
    const Tensor conv_g = convOutGradRow(cache, dlogits, i);
    const double conv_sq =
        conv_.perExampleGradNormSq(input_row, conv_g, 0);
    return fc_sq + conv_sq;
}

void
ConvNet::backwardReweighted(const Cache &cache, const Tensor &dlogits,
                            const std::vector<double> &weights,
                            ConvNetGrads &grads) const
{
    DIVA_ASSERT(std::size_t(dlogits.rows()) == weights.size());
    grads = zeroGrads();

    // Reweight the logit gradients (Algorithm 1, line 35).
    Tensor g = dlogits;
    for (std::int64_t i = 0; i < g.rows(); ++i)
        for (std::int64_t j = 0; j < g.cols(); ++j)
            g.at(i, j) = float(double(g.at(i, j)) *
                               weights[std::size_t(i)]);

    fc_.perBatchGrad(cache.reluOut, g, grads.fcW, grads.fcB);

    Tensor conv_g = fc_.backwardInput(g);
    conv_g = reluBackward(cache.convOut, conv_g);
    conv_.perBatchGrad(cache.input, conv_g, grads.convW, grads.convB);
}

void
ConvNet::applyUpdate(const ConvNetGrads &grads, double lr)
{
    conv_.weight().addScaled(grads.convW, -lr);
    conv_.bias().addScaled(grads.convB, -lr);
    fc_.weight().addScaled(grads.fcW, -lr);
    fc_.bias().addScaled(grads.fcB, -lr);
}

ConvNetGrads
ConvNet::zeroGrads() const
{
    ConvNetGrads g;
    g.convW = Tensor(conv_.weight().rows(), conv_.weight().cols());
    g.convB = Tensor(1, conv_.bias().cols());
    g.fcW = Tensor(fc_.weight().rows(), fc_.weight().cols());
    g.fcB = Tensor(1, fc_.bias().cols());
    return g;
}

double
ConvNet::accuracy(const Tensor &x, const std::vector<int> &y) const
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

} // namespace diva
