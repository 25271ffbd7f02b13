#include "train/planner.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"

namespace diva
{

namespace
{

/** Append a GEMM op if the layer produces one for this operation. */
void
pushGemm(OpStream &stream, const Layer &layer, const GemmInstance &gi,
         Stage stage, bool per_example_output = false)
{
    if (!gi.valid())
        return;
    Op op;
    op.type = OpType::kGemm;
    op.stage = stage;
    op.layerName = layer.name;
    op.shape = gi.shape;
    op.count = gi.count;
    op.perExampleOutput = per_example_output;
    stream.ops.push_back(std::move(op));
}

/** Append a post-processing op over `in` input / `out` output elems. */
void
pushPostProc(OpStream &stream, OpType type, Stage stage,
             const std::string &layer_name, Elems in, Elems out)
{
    Op op;
    op.type = type;
    op.stage = stage;
    op.layerName = layer_name;
    op.inElems = in;
    op.outElems = out;
    stream.ops.push_back(std::move(op));
}

void
emitForward(OpStream &stream, const Network &net, int batch)
{
    for (const auto &layer : net.layers)
        pushGemm(stream, layer, layer.forwardGemm(batch),
                 Stage::kForward);
}

void
emitActGrad(OpStream &stream, const Network &net, int batch, Stage stage)
{
    // Reverse layer order; the first layer's input gradient is never
    // needed (there is no upstream layer to propagate it to).
    for (std::size_t i = net.layers.size(); i-- > 1;) {
        const auto &layer = net.layers[i];
        pushGemm(stream, layer, layer.actGradGemm(batch), stage);
    }
}

void
emitPerBatchWGrad(OpStream &stream, const Network &net, int batch)
{
    for (std::size_t i = net.layers.size(); i-- > 0;) {
        const auto &layer = net.layers[i];
        pushGemm(stream, layer, layer.perBatchWGradGemm(batch),
                 Stage::kPerBatchGrad);
    }
}

void
emitPerExampleWGradAndNorm(OpStream &stream, const Network &net,
                           int batch)
{
    for (std::size_t i = net.layers.size(); i-- > 0;) {
        const auto &layer = net.layers[i];
        pushGemm(stream, layer, layer.perExampleWGradGemm(batch),
                 Stage::kPerExampleGrad, /*per_example_output=*/true);
        if (layer.hasWeights()) {
            const Elems grads =
                Elems(batch) * Elems(layer.paramCount());
            // One squared-norm partial per example per layer.
            pushPostProc(stream, OpType::kGradNorm, Stage::kGradNorm,
                         layer.name, grads, Elems(batch));
        }
    }
}

} // namespace

OpStream
buildMicrobatchedOpStream(const Network &net, TrainingAlgorithm algo,
                          int batch, int microbatch)
{
    DIVA_ASSERT(batch > 0 && microbatch > 0);
    DIVA_ASSERT(microbatch <= batch,
                "micro-batch cannot exceed the mini-batch");

    const int full_passes = batch / microbatch;
    const int remainder = batch % microbatch;

    OpStream stream;
    stream.networkName = net.name;
    stream.algorithm = algo;
    stream.batch = batch;

    // Every full pass lowers to the same ops, so each distinct pass is
    // built once and copied pass by pass. Noise is added once per
    // logical mini-batch, after the last micro-batch's gradients are
    // accumulated: earlier passes copy every op but the noise.
    const auto not_noise = [](const Op &op) {
        return op.type != OpType::kNoiseAdd;
    };
    const OpStream full = buildOpStream(net, algo, microbatch);
    const OpStream rest = remainder > 0
                              ? buildOpStream(net, algo, remainder)
                              : OpStream{};
    const OpStream &last = remainder > 0 ? rest : full;
    const int early = remainder > 0 ? full_passes : full_passes - 1;
    const auto early_ops = std::size_t(
        std::count_if(full.ops.begin(), full.ops.end(), not_noise));
    stream.ops.reserve(std::size_t(early) * early_ops + last.ops.size());
    for (int p = 0; p < early; ++p)
        std::copy_if(full.ops.begin(), full.ops.end(),
                     std::back_inserter(stream.ops), not_noise);
    stream.ops.insert(stream.ops.end(), last.ops.begin(), last.ops.end());
    return stream;
}

OpStream
buildOpStream(const Network &net, TrainingAlgorithm algo, int batch)
{
    DIVA_ASSERT(batch > 0, "mini-batch must be positive");
    DIVA_ASSERT(!net.layers.empty(), "network '", net.name,
                "' has no layers");

    OpStream stream;
    stream.networkName = net.name;
    stream.algorithm = algo;
    stream.batch = batch;

    const Elems params = Elems(net.paramCount());
    const Elems per_example_grads = Elems(batch) * params;

    emitForward(stream, net, batch);

    switch (algo) {
      case TrainingAlgorithm::kSgd:
        emitActGrad(stream, net, batch, Stage::kActGrad1);
        emitPerBatchWGrad(stream, net, batch);
        break;

      case TrainingAlgorithm::kDpSgd:
        emitActGrad(stream, net, batch, Stage::kActGrad1);
        emitPerExampleWGradAndNorm(stream, net, batch);
        // Algorithm 1, lines 23-24: clip every per-example gradient,
        // reduce into one per-batch gradient, then add noise.
        pushPostProc(stream, OpType::kGradClip, Stage::kGradClip,
                     "all_layers", per_example_grads, per_example_grads);
        pushPostProc(stream, OpType::kGradReduce, Stage::kReduceNoise,
                     "all_layers", per_example_grads, params);
        pushPostProc(stream, OpType::kNoiseAdd, Stage::kReduceNoise,
                     "all_layers", params, params);
        break;

      case TrainingAlgorithm::kDpSgdR:
        // Algorithm 1, lines 28-42: first backprop derives only the
        // per-example norms; the reweighted second backprop fuses the
        // clip/reduce into the per-batch weight-gradient GEMMs.
        emitActGrad(stream, net, batch, Stage::kActGrad1);
        emitPerExampleWGradAndNorm(stream, net, batch);
        emitActGrad(stream, net, batch, Stage::kActGrad2);
        emitPerBatchWGrad(stream, net, batch);
        pushPostProc(stream, OpType::kNoiseAdd, Stage::kReduceNoise,
                     "all_layers", params, params);
        break;
    }
    return stream;
}

} // namespace diva
