#include "gemm/ws_systolic.h"

#include <algorithm>

#include "common/logging.h"

namespace diva
{

WsSystolicModel::WsSystolicModel(const AcceleratorConfig &cfg)
    : GemmEngineModel(cfg)
{
    DIVA_ASSERT(cfg.dataflow == Dataflow::kWeightStationary);
}

Cycles
WsSystolicModel::computeCycles(const GemmShape &shape) const
{
    // Latch each (kt x nt) weight tile, then stream all M LHS rows
    // through it. The stream occupies M + kt + nt - 1 cycles due to the
    // diagonal input/output skew (Figure 3(c): M + K + PE_W - 1).
    const auto latch = [&](std::int64_t kt) {
        return Cycles(ceilDiv<std::int64_t>(kt, cfg_.weightFillRowsPerCycle));
    };
    const auto stream = [&](std::int64_t kt, std::int64_t nt) {
        return Cycles(shape.m + kt + nt - 1);
    };
    // Double-buffered latches hide each fill behind the previous tile's
    // stream; only the first fill and any fill longer than a stream stay
    // exposed. The first tile costs latch + stream = max + min, so the
    // sum is Σ max(latch, stream) plus min(latch, stream) of tile 0.
    const bool db = cfg_.wsDoubleBufferWeights;
    const std::int64_t kt0 = std::min<std::int64_t>(cfg_.peRows, shape.k);
    const std::int64_t nt0 = std::min<std::int64_t>(cfg_.peCols, shape.n);
    return (db ? std::min(latch(kt0), stream(kt0, nt0)) : 0) +
           sumOverTiles(shape.k, cfg_.peRows, shape.n, cfg_.peCols,
                        [&](std::int64_t kt, std::int64_t nt) {
                            return db ? std::max(latch(kt), stream(kt, nt))
                                      : latch(kt) + stream(kt, nt);
                        });
}

Bytes
WsSystolicModel::sramReadBytesPerCycle() const
{
    // Table I: LHS stream PE_H x 2B plus weight fill PE_W x 8 x 2B.
    return Bytes(cfg_.peRows) * cfg_.inputBytes +
           Bytes(cfg_.peCols) * cfg_.weightFillRowsPerCycle *
               cfg_.inputBytes;
}

Bytes
WsSystolicModel::sramWriteBytesPerCycle() const
{
    // Table I: one output row of PE_W elements per cycle, 4B each.
    return Bytes(cfg_.peCols) * cfg_.accumBytes;
}

} // namespace diva
