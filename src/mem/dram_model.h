/**
 * @file
 * Bandwidth/latency model of the off-chip (HBM) memory system, plus a
 * traffic accumulator used to attribute DRAM bytes to training stages.
 */

#ifndef DIVA_MEM_DRAM_MODEL_H
#define DIVA_MEM_DRAM_MODEL_H

#include "arch/accelerator_config.h"
#include "common/types.h"

namespace diva
{

/**
 * A simple but faithful DRAM timing model: a transfer of S bytes costs
 * one access latency plus S divided by the peak bandwidth. Streaming
 * transfers issued by the DMA engine are assumed to pipeline, so latency
 * is charged once per logical transfer, not per beat.
 */
class DramModel
{
  public:
    explicit DramModel(const AcceleratorConfig &cfg);

    /** Cycles to move `bytes` in one pipelined streaming transfer. */
    Cycles transferCycles(Bytes bytes) const;

    /**
     * Cycles for a bandwidth-bound phase that moves `bytes` total,
     * without charging the fixed latency (used when transfers overlap
     * compute and only steady-state bandwidth matters).
     */
    Cycles streamingCycles(Bytes bytes) const;

  private:
    double bytesPerCycle_;
    Cycles latency_;
};

/** Read/write DRAM byte counters for one simulated phase. */
struct DramTraffic
{
    Bytes readBytes = 0;
    Bytes writeBytes = 0;

    Bytes total() const { return readBytes + writeBytes; }

    DramTraffic &operator+=(const DramTraffic &o)
    {
        readBytes += o.readBytes;
        writeBytes += o.writeBytes;
        return *this;
    }
};

} // namespace diva

#endif // DIVA_MEM_DRAM_MODEL_H
