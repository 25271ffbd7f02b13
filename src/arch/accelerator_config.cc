#include "arch/accelerator_config.h"

#include "common/logging.h"

namespace diva
{

const char *
dataflowName(Dataflow df)
{
    switch (df) {
      case Dataflow::kWeightStationary: return "WS";
      case Dataflow::kOutputStationary: return "OS";
      case Dataflow::kOuterProduct: return "DiVa";
    }
    return "?";
}

std::string
AcceleratorConfig::validationError() const
{
    if (peRows <= 0 || peCols <= 0)
        return detail::concat("PE array dimensions must be positive: ",
                              peRows, "x", peCols);
    if (freqGhz <= 0.0)
        return detail::concat("clock frequency must be positive: ",
                              freqGhz);
    if (sramBytes == 0)
        return "on-chip SRAM capacity must be non-zero";
    if (dramBandwidthGBs <= 0.0)
        return detail::concat("DRAM bandwidth must be positive: ",
                              dramBandwidthGBs);
    if (weightFillRowsPerCycle <= 0)
        return "weight fill rate must be positive";
    if (drainRowsPerCycle <= 0 || drainRowsPerCycle > peRows)
        return detail::concat("drain rate must be in [1, peRows]: ",
                              drainRowsPerCycle);
    if (hasPpu && dataflow == Dataflow::kWeightStationary)
        return "a WS systolic array cannot host the PPU: its output "
               "granularity (tens of MBs in vector memory) defeats "
               "on-the-fly norm derivation (Section IV-C)";
    if (inputBytes <= 0 || accumBytes <= 0)
        return "element widths must be positive";
    return "";
}

void
AcceleratorConfig::validate() const
{
    const std::string error = validationError();
    if (!error.empty())
        DIVA_FATAL(error);
}

AcceleratorConfig
tpuV3Ws()
{
    AcceleratorConfig cfg;
    cfg.name = "Systolic-WS";
    cfg.dataflow = Dataflow::kWeightStationary;
    cfg.hasPpu = false;
    return cfg;
}

AcceleratorConfig
systolicOs(bool with_ppu)
{
    AcceleratorConfig cfg;
    cfg.name = with_ppu ? "Systolic-OS+PPU" : "Systolic-OS";
    cfg.dataflow = Dataflow::kOutputStationary;
    cfg.hasPpu = with_ppu;
    return cfg;
}

AcceleratorConfig
divaDefault(bool with_ppu)
{
    AcceleratorConfig cfg;
    cfg.name = with_ppu ? "DiVa" : "DiVa-noPPU";
    cfg.dataflow = Dataflow::kOuterProduct;
    cfg.hasPpu = with_ppu;
    return cfg;
}

AcceleratorConfig
presetConfig(Dataflow df, bool ppu)
{
    switch (df) {
      case Dataflow::kWeightStationary: {
        AcceleratorConfig cfg = tpuV3Ws();
        cfg.hasPpu = ppu;
        return cfg;
      }
      case Dataflow::kOutputStationary:
        return systolicOs(ppu);
      case Dataflow::kOuterProduct:
        return divaDefault(ppu);
    }
    return {};
}

} // namespace diva
