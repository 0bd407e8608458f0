// Equality of two scenario results over everything they count: every
// scalar of scenario_metrics() and every field of the kernel counter
// block, each mismatch reported by name. The determinism tests (reruns,
// thread counts, inert feature switches) all compare through this.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/scenario.h"
#include "util/kernel_stats.h"

namespace pqs::core {

inline void expect_same_kernel(const util::KernelStats& a,
                               const util::KernelStats& b,
                               const std::string& where = "") {
    std::size_t count = 0;
    const util::KernelStatsField* fields = util::kernel_stats_fields(&count);
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(fields[i].get(a), fields[i].get(b))
            << where << "kernel." << fields[i].name;
    }
}

inline void expect_same_results(const ScenarioResult& a,
                                const ScenarioResult& b,
                                const std::string& where = "") {
    for (const ScenarioMetric& metric : scenario_metrics()) {
        EXPECT_EQ(metric.get(a), metric.get(b)) << where << metric.name;
    }
    expect_same_kernel(a.kernel, b.kernel, where);
}

}  // namespace pqs::core
