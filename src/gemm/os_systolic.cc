#include "gemm/os_systolic.h"

#include "common/logging.h"

namespace diva
{

OsSystolicModel::OsSystolicModel(const AcceleratorConfig &cfg)
    : GemmEngineModel(cfg)
{
    DIVA_ASSERT(cfg.dataflow == Dataflow::kOutputStationary);
}

Cycles
OsSystolicModel::computeCycles(const GemmShape &shape) const
{
    const std::int64_t drain = cfg_.drainRowsPerCycle;
    return sumOverTiles(
        shape.m, cfg_.peRows, shape.n, cfg_.peCols,
        [&](std::int64_t mt, std::int64_t nt) {
            // Figure 3(b): the skewed LHS/RHS streams take
            // K + mt + nt - 1 cycles to produce the final partial sum;
            // the latched outputs must then drain before the PEs can
            // start the next tile's accumulation.
            const Cycles stream = Cycles(shape.k + mt + nt - 1);
            return stream + Cycles(ceilDiv(mt, drain));
        });
}

Bytes
OsSystolicModel::sramReadBytesPerCycle() const
{
    // Table I: one LHS vector (PE_H) and one RHS vector (PE_W) per
    // cycle, both 2B elements.
    return Bytes(cfg_.peRows) * cfg_.inputBytes +
           Bytes(cfg_.peCols) * cfg_.inputBytes;
}

Bytes
OsSystolicModel::sramWriteBytesPerCycle() const
{
    // Table I: R output rows of PE_W elements drained per cycle, 4B.
    return Bytes(cfg_.peCols) * cfg_.drainRowsPerCycle * cfg_.accumBytes;
}

} // namespace diva
