#include "sweep/scenario.h"

#include <algorithm>
#include <functional>
#include <map>

#include "common/format.h"
#include "common/logging.h"
#include "models/zoo.h"
#include "train/memory_model.h"

namespace diva
{

const char *
backendName(SweepBackend b)
{
    switch (b) {
      case SweepBackend::kSingleChip: return "chip";
      case SweepBackend::kMultiChip: return "pod";
      case SweepBackend::kGpu: return "gpu";
    }
    return "?";
}

std::string
Scenario::label() const
{
    std::string out =
        backend == SweepBackend::kGpu ? gpu.name : config.name;
    if (backend == SweepBackend::kMultiChip) {
        out += " x";
        appendInt(out, pod.numChips);
        // Spell out the link design point: pods differing only in
        // interconnect must stay tellable apart in reports.
        out += " ici=";
        appendDouble(out, pod.interconnectGBs);
        out += "GB/s lat=";
        appendInt(out, pod.linkLatencyCycles);
    }
    out += " / ";
    out += model;
    if (modelScale != 0) {
        out += '@';
        appendInt(out, modelScale);
    }
    out += " / ";
    out += algorithmName(algorithm);
    out += " / b=";
    if (batch == kAutoBatch)
        out += "auto";
    else
        appendInt(out, batch);
    if (microbatch > 0) {
        out += " mb=";
        appendInt(out, microbatch);
    }
    return out;
}

void
appendDesignKey(std::string &out, SweepBackend backend,
                const AcceleratorConfig &config,
                const MultiChipConfig &pod, const GpuConfig &gpu)
{
    if (backend == SweepBackend::kGpu) {
        appendCells(out, gpu.name, gpu.peakTflops, gpu.bandwidthGBs,
                    gpu.numSms, gpu.tileM, gpu.tileN, gpu.kGranule,
                    gpu.kernelOverheadSec, gpu.gemmEfficiency);
        return;
    }
    const AcceleratorConfig &c = config;
    appendCells(out, c.name, dataflowName(c.dataflow), c.peRows,
                c.peCols, c.freqGhz, c.sramBytes, c.dramBandwidthGBs,
                c.dramLatencyCycles, c.weightFillRowsPerCycle,
                c.wsDoubleBufferWeights, c.drainRowsPerCycle, c.hasPpu,
                c.inputBytes, c.accumBytes, c.vectorLanes);
    if (backend == SweepBackend::kMultiChip)
        appendCells(out, pod.numChips, pod.interconnectGBs,
                    pod.linkLatencyCycles);
}

std::string
Scenario::key(std::size_t *workloadSize) const
{
    // Keyed on the *effective* backend: a registered non-built-in
    // backend must never alias the built-in of the same kind in the
    // result caches. Text cells are CSV-quoted when they need it, so
    // cell boundaries are exact too.
    std::string out;
    appendCsvCell(out, effectiveBackend());
    appendCells(out, model, modelScale, algorithmName(algorithm), batch,
                microbatch);
    // The auto-batch protocol depends on the budget only when active.
    if (batch == kAutoBatch)
        appendCell(out, memoryBudget);
    if (workloadSize)
        *workloadSize = out.size();
    appendDesignKey(out, backend, config, pod, gpu);
    return out;
}

Network
buildModel(const std::string &name, int scale)
{
    using Builder = std::function<Network(int)>;
    static const std::map<std::string, std::pair<Builder, int>> builders =
        {
            {"VGG-16", {[](int s) { return vgg16(s); }, kDefaultImageSize}},
            {"ResNet-50",
             {[](int s) { return resnet50(s); }, kDefaultImageSize}},
            {"ResNet-152",
             {[](int s) { return resnet152(s); }, kDefaultImageSize}},
            {"SqueezeNet",
             {[](int s) { return squeezenet(s); }, kDefaultImageSize}},
            {"MobileNet",
             {[](int s) { return mobilenet(s); }, kDefaultImageSize}},
            {"BERT-base",
             {[](int s) { return bertBase(s); }, kDefaultSeqLen}},
            {"BERT-large",
             {[](int s) { return bertLarge(s); }, kDefaultSeqLen}},
            {"LSTM-small",
             {[](int s) { return lstmSmall(s); }, kDefaultSeqLen}},
            {"LSTM-large",
             {[](int s) { return lstmLarge(s); }, kDefaultSeqLen}},
        };
    const auto it = builders.find(name);
    if (it == builders.end())
        DIVA_FATAL("unknown sweep model '", name,
                   "'; see knownModels() for the zoo");
    const auto &[build, default_scale] = it->second;
    return build(scale != 0 ? scale : default_scale);
}

std::vector<std::string>
knownModels()
{
    return {"VGG-16",     "ResNet-50",  "ResNet-152",
            "SqueezeNet", "MobileNet",  "BERT-base",
            "BERT-large", "LSTM-small", "LSTM-large"};
}

int
resolveBatch(const Scenario &s, const Network &net)
{
    if (s.batch != kAutoBatch)
        return s.batch;
    return std::max(
        1, maxBatchSize(net, TrainingAlgorithm::kDpSgd, s.memoryBudget));
}

} // namespace diva
