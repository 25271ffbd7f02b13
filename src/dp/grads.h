/**
 * @file
 * The arithmetic every gradient container shares, written once over
 * the container's tensor list. A container derives from
 * GradsOps<Self> and lists its tensors in one static template,
 *
 *   template <typename G> static auto tensorsOf(G &g);
 *
 * returning pointers (const when G is) in a fixed order. Cross-tensor
 * sums and the trainer's noise draws follow that order, so it is part
 * of the numeric result: changing it changes the bits.
 */

#ifndef DIVA_DP_GRADS_H
#define DIVA_DP_GRADS_H

#include <algorithm>

#include "common/logging.h"
#include "dp/tensor.h"

namespace diva
{

template <typename Self>
struct GradsOps
{
    /** Visit every gradient tensor in list order. */
    template <typename Fn>
    void
    forEachTensor(Fn &&fn)
    {
        for (Tensor *t : Self::tensorsOf(self()))
            fn(*t);
    }

    void
    setZero()
    {
        forEachTensor([](Tensor &t) { t.setZero(); });
    }

    void
    scale(double s)
    {
        forEachTensor([s](Tensor &t) { t.scale(s); });
    }

    void
    add(const Self &other)
    {
        zip(other, [](Tensor &t, const Tensor &o) { t.add(o); });
    }

    void
    addScaled(const Self &other, double s)
    {
        zip(other, [s](Tensor &t, const Tensor &o) { t.addScaled(o, s); });
    }

    double
    l2NormSq() const
    {
        double acc = 0.0;
        for (const Tensor *t : Self::tensorsOf(self()))
            acc += t->l2NormSq();
        return acc;
    }

    double
    maxAbsDiff(const Self &other) const
    {
        const auto mine = Self::tensorsOf(self());
        const auto theirs = Self::tensorsOf(other);
        DIVA_ASSERT(mine.size() == theirs.size());
        double best = 0.0;
        for (std::size_t i = 0; i < mine.size(); ++i)
            best = std::max(best, mine[i]->maxAbsDiff(*theirs[i]));
        return best;
    }

  private:
    Self &self() { return static_cast<Self &>(*this); }
    const Self &self() const { return static_cast<const Self &>(*this); }

    template <typename Fn>
    void
    zip(const Self &other, Fn &&fn)
    {
        const auto mine = Self::tensorsOf(self());
        const auto theirs = Self::tensorsOf(other);
        DIVA_ASSERT(mine.size() == theirs.size());
        for (std::size_t i = 0; i < mine.size(); ++i)
            fn(*mine[i], *theirs[i]);
    }
};

} // namespace diva

#endif // DIVA_DP_GRADS_H
