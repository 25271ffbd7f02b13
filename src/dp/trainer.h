/**
 * @file
 * The functional trainer: SGD, DP-SGD and DP-SGD(R) (Algorithm 1 of
 * the paper) for any conforming model, keyed by the same
 * TrainingAlgorithm the cost model prices.
 *
 * DP-SGD materializes every per-example gradient, clips each to the
 * max norm C, aggregates, and adds N(0, sigma^2 C^2 I) noise. DP-SGD(R)
 * derives the per-example norms *without* materializing the gradients
 * (first pass), then runs a reweighted per-batch backward pass whose
 * result equals the sum of clipped per-example gradients (Lee &
 * Kifer); SGD is that second pass with unit weights and no noise.
 * Given the same noise seed, DP-SGD and DP-SGD(R) produce the same
 * noisy update.
 *
 * A model must provide:
 *
 *   - nested `Cache` type and
 *     `lossAndLogitGrad(x, y, cache, dlogits)`;
 *   - `Grads zeroGrads()` where Grads derives from GradsOps
 *     (dp/grads.h);
 *   - `perExampleGrad(cache, dlogits, i, grads)`;
 *   - `perExampleGradNormSq(cache, dlogits, i)`;
 *   - `backwardReweighted(cache, dlogits, weights, grads)`;
 *   - `applyUpdate(grads, lr)`.
 *
 * Mlp (dp/mlp.h) and ConvNet (dp/convnet.h) both do.
 */

#ifndef DIVA_DP_TRAINER_H
#define DIVA_DP_TRAINER_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "dp/tensor.h"
#include "train/algorithm.h"

namespace diva
{

/** Hyper-parameters of a trainer (clip and noise unused by SGD). */
struct DpSgdConfig
{
    double clipNorm = 1.0;        ///< C, max per-example gradient norm
    double noiseMultiplier = 1.0; ///< sigma
    double learningRate = 0.5;
    std::uint64_t noiseSeed = 0x90155eed;
};

/** Result of deriving one mini-batch gradient. */
struct DpStepResult
{
    double meanLoss = 0.0;
    /** One per example under DP-SGD and DP-SGD(R); empty under SGD. */
    std::vector<double> perExampleNorms;
    /** Fraction of examples whose gradient hit the clip bound. */
    double clippedFraction = 0.0;
};

/** One trainer for every algorithm and every conforming model. */
template <typename Model>
class Trainer
{
  public:
    using Grads = decltype(std::declval<const Model &>().zeroGrads());

    Trainer(Model &model, TrainingAlgorithm algorithm,
            const DpSgdConfig &cfg)
        : model_(model), algorithm_(algorithm), cfg_(cfg),
          noiseRng_(cfg.noiseSeed)
    {
        DIVA_ASSERT(cfg.clipNorm > 0.0, "clip norm must be positive");
        DIVA_ASSERT(cfg.noiseMultiplier >= 0.0);
    }

    /**
     * Derive the mini-batch gradient for (x, y) into `out`: under DP,
     * the aggregate of clipped per-example gradients plus noise; in
     * every case averaged by the batch size (Algorithm 1, line 24 /
     * 41).
     */
    DpStepResult
    gradient(const Tensor &x, const std::vector<int> &y, Grads &out)
    {
        DpStepResult result;
        typename Model::Cache cache;
        Tensor dlogits;
        result.meanLoss = model_.lossAndLogitGrad(x, y, cache, dlogits);

        const std::int64_t batch = x.rows();
        std::int64_t clipped = 0;
        // Record example i's norm; returns its clip factor
        // r_i = 1 / max(1, n_i / C).
        const auto clip = [&](double norm_sq) {
            const double norm = std::sqrt(norm_sq);
            result.perExampleNorms.push_back(norm);
            const double factor = 1.0 / std::max(1.0, norm / cfg_.clipNorm);
            if (factor < 1.0)
                ++clipped;
            return factor;
        };

        if (algorithm_ == TrainingAlgorithm::kDpSgd) {
            // Lines 19-23: materialize g_i, derive its norm, scale by
            // min(1, C/n_i), and accumulate.
            out = model_.zeroGrads();
            Grads example = model_.zeroGrads();
            for (std::int64_t i = 0; i < batch; ++i) {
                model_.perExampleGrad(cache, dlogits, i, example);
                out.addScaled(example, clip(example.l2NormSq()));
            }
        } else {
            std::vector<double> weights(std::size_t(batch), 1.0);
            // DP-SGD(R) lines 30-33: per-example norms only; no
            // per-example gradient tensor is ever materialized.
            if (algorithm_ == TrainingAlgorithm::kDpSgdR)
                for (std::int64_t i = 0; i < batch; ++i)
                    weights[std::size_t(i)] = clip(
                        model_.perExampleGradNormSq(cache, dlogits, i));
            // Lines 35-40: per-batch backprop of the reweighted loss;
            // clipping and reduction fuse into the GEMMs.
            model_.backwardReweighted(cache, dlogits, weights, out);
        }

        if (algorithm_ != TrainingAlgorithm::kSgd) {
            result.clippedFraction = double(clipped) / double(batch);
            const double stddev = cfg_.noiseMultiplier * cfg_.clipNorm;
            if (stddev > 0.0)
                out.forEachTensor([&](Tensor &t) {
                    for (auto &v : t.data())
                        v = float(v + noiseRng_.gaussian(0.0, stddev));
                });
        }
        out.scale(1.0 / double(batch));
        return result;
    }

    /** One full step: gradient + SGD update. */
    DpStepResult
    step(const Tensor &x, const std::vector<int> &y)
    {
        Grads grads = model_.zeroGrads();
        DpStepResult result = gradient(x, y, grads);
        model_.applyUpdate(grads, cfg_.learningRate);
        return result;
    }

  private:
    Model &model_;
    TrainingAlgorithm algorithm_;
    DpSgdConfig cfg_;
    Rng noiseRng_;
};

} // namespace diva

#endif // DIVA_DP_TRAINER_H
