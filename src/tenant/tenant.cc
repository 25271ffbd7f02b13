#include "tenant/tenant.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sweep/scenario.h"

namespace diva
{

std::string
TenantJob::validationError(bool wallLimited) const
{
    // Built once: a trace validates every session against the zoo.
    static const std::vector<std::string> zoo = knownModels();
    if (std::find(zoo.begin(), zoo.end(), model) == zoo.end())
        return "unknown model '" + model + "'";
    if (batch < 0)
        return "batch must be >= 0 (0 = auto)";
    if (microbatch < 0)
        return "microbatch must be >= 0";
    if (modelScale < 0)
        return "model scale must be >= 0";
    if (!(arrivalSec >= 0.0) || !std::isfinite(arrivalSec))
        return "arrival must be a finite time >= 0";
    if (!(departSec >= 0.0) || !std::isfinite(departSec))
        return "departure must be a finite time >= 0";
    if (departSec > 0.0 && departSec <= arrivalSec)
        return "departure precedes arrival";
    if (steps == 0 && !wallLimited && departSec <= 0.0)
        return "unbounded steps (0) need a wall-clock budget or a "
               "departure time";
    if (!(qosStepsPerSec >= 0.0) || !std::isfinite(qosStepsPerSec))
        return "QoS steps/sec must be finite and >= 0";
    if (!(qosDeadlineSec >= 0.0) || !std::isfinite(qosDeadlineSec))
        return "QoS deadline must be finite and >= 0";
    if (qosStepsPerSec > 0.0 && qosDeadlineSec > 0.0)
        return "set a steps/sec target or a deadline, not both";
    if (qosDeadlineSec > 0.0 && qosDeadlineSec <= arrivalSec)
        return "QoS deadline precedes arrival";
    if (qosDeadlineSec > 0.0 && steps == 0)
        return "a deadline target needs a bounded step budget";
    return "";
}

std::string
TenantWorkload::validationError(bool wallLimited) const
{
    if (jobs.empty())
        return "workload has no tenants";
    for (const TenantJob &job : jobs) {
        const std::string err = job.validationError(wallLimited);
        if (!err.empty())
            return "tenant '" + job.name + "': " + err;
    }
    return "";
}

const std::vector<std::string> &
defaultModelRotation()
{
    static const std::vector<std::string> kRotation = {
        "SqueezeNet", "MobileNet", "LSTM-small", "ResNet-50", "BERT-base",
    };
    return kRotation;
}

TenantWorkload
defaultWorkload(int n, std::uint64_t steps, int batch,
                double arriveEverySec)
{
    const std::vector<std::string> &rotation = defaultModelRotation();
    TenantWorkload mix;
    {
        std::ostringstream oss;
        oss << "mixed-" << n;
        mix.name = oss.str();
    }
    for (int i = 0; i < n; ++i) {
        TenantJob job;
        job.model = rotation[std::size_t(i) % rotation.size()];
        std::ostringstream oss;
        oss << "t" << i << ":" << job.model;
        job.name = oss.str();
        job.batch = batch;
        job.steps = steps;
        job.arrivalSec = arriveEverySec * double(i);
        job.priority = i % 3;
        mix.jobs.push_back(std::move(job));
    }
    return mix;
}

} // namespace diva
