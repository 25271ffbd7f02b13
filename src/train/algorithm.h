/**
 * @file
 * The three training algorithms compared throughout the paper.
 */

#ifndef DIVA_TRAIN_ALGORITHM_H
#define DIVA_TRAIN_ALGORITHM_H

#include <algorithm>
#include <cctype>
#include <optional>
#include <string_view>

namespace diva
{

/** Training algorithm selection (Algorithm 1). */
enum class TrainingAlgorithm
{
    /** Non-private mini-batch SGD. */
    kSgd,
    /** Vanilla DP-SGD: per-example grads stored, then clipped/reduced. */
    kDpSgd,
    /**
     * Reweighted DP-SGD (Lee & Kifer): first backprop derives only the
     * per-example gradient norms; a second backprop computes the
     * clipped per-batch gradient directly from a reweighted loss.
     */
    kDpSgdR,
};

inline const char *
algorithmName(TrainingAlgorithm a)
{
    switch (a) {
      case TrainingAlgorithm::kSgd: return "SGD";
      case TrainingAlgorithm::kDpSgd: return "DP-SGD";
      case TrainingAlgorithm::kDpSgdR: return "DP-SGD(R)";
    }
    return "?";
}

/** Parse an algorithm name as emitted by algorithmName(), or one of
 *  the aliases sgd/dpsgd/dpsgdr/dp-sgd-r, ignoring ASCII case. */
inline std::optional<TrainingAlgorithm>
algorithmFromName(std::string_view name)
{
    auto is = [name](std::string_view lowered) {
        return name.size() == lowered.size() &&
               std::equal(name.begin(), name.end(), lowered.begin(),
                          [](char a, char b) {
                              return std::tolower(
                                         static_cast<unsigned char>(a)) ==
                                     b;
                          });
    };
    if (is("sgd"))
        return TrainingAlgorithm::kSgd;
    if (is("dpsgd") || is("dp-sgd"))
        return TrainingAlgorithm::kDpSgd;
    if (is("dpsgdr") || is("dp-sgd-r") || is("dp-sgd(r)"))
        return TrainingAlgorithm::kDpSgdR;
    return std::nullopt;
}

} // namespace diva

#endif // DIVA_TRAIN_ALGORITHM_H
