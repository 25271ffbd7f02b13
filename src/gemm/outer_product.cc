#include "gemm/outer_product.h"

#include <algorithm>

#include "common/logging.h"

namespace diva
{

OuterProductModel::OuterProductModel(const AcceleratorConfig &cfg)
    : GemmEngineModel(cfg)
{
    DIVA_ASSERT(cfg.dataflow == Dataflow::kOuterProduct);
}

Cycles
OuterProductModel::computeCycles(const GemmShape &shape) const
{
    const std::int64_t drain = cfg_.drainRowsPerCycle;

    // Broadcast over the local buses has a short, constant pipeline
    // fill (bus drive + multiply + accumulate register).
    constexpr Cycles kPipelineFill = 2;

    return sumOverTiles(
        shape.m, cfg_.peRows, shape.n, cfg_.peCols,
        [&](std::int64_t mt, std::int64_t) {
            // K vector pairs streamed, one per cycle; no skew. The
            // R-rows-per-cycle drain proceeds progressively, so the
            // next tile's accumulation overlaps the drain in rows that
            // have already been read out: the tile costs
            // max(K, drain-time) rather than their sum.
            const Cycles accumulate = Cycles(shape.k);
            const Cycles drain_cycles = Cycles(ceilDiv(mt, drain));
            return std::max(accumulate, drain_cycles) + kPipelineFill;
        });
}

Bytes
OuterProductModel::sramReadBytesPerCycle() const
{
    // Two input vectors per cycle: O(PE_H + PE_W), same as systolic OS
    // (Table I / Section IV-D).
    return Bytes(cfg_.peRows) * cfg_.inputBytes +
           Bytes(cfg_.peCols) * cfg_.inputBytes;
}

Bytes
OuterProductModel::sramWriteBytesPerCycle() const
{
    return Bytes(cfg_.peCols) * cfg_.drainRowsPerCycle * cfg_.accumBytes;
}

} // namespace diva
