#include "util/kernel_stats.h"

#include <cstddef>
#include <stdexcept>
#include <string>

namespace pqs::util {

const KernelStatsField* kernel_stats_fields(std::size_t* count) {
    static const KernelStatsField fields[] = {
#define PQS_KERNEL_STATS_FIELD(field) \
    KernelStatsField{#field,          \
                     [](const KernelStats& s) { return s.field; }},
        PQS_KERNEL_STATS_FIELDS(PQS_KERNEL_STATS_FIELD)
#undef PQS_KERNEL_STATS_FIELD
    };
    *count = sizeof(fields) / sizeof(fields[0]);
    return fields;
}

double KernelStats::counter(std::string_view name) const {
    std::size_t count = 0;
    const KernelStatsField* fields = kernel_stats_fields(&count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::string_view field = fields[i].name;
        if (field.size() != name.size()) {
            continue;
        }
        bool same = true;
        for (std::size_t c = 0; same && c < name.size(); ++c) {
            same = name[c] == field[c] || (name[c] == '.' && field[c] == '_');
        }
        if (same) {
            return static_cast<double>(fields[i].get(*this));
        }
    }
    throw std::invalid_argument("KernelStats: no counter named " +
                                std::string(name));
}

void report_kernel_stats(const KernelStats& stats, const char* label,
                         std::FILE* stream) {
    std::fprintf(stream, "[perf] kernel %s:", label);
    std::size_t count = 0;
    const KernelStatsField* fields = kernel_stats_fields(&count);
    for (std::size_t i = 0; i < count; ++i) {
        std::fprintf(stream, " %s=%llu", fields[i].name,
                     static_cast<unsigned long long>(fields[i].get(stats)));
    }
    std::fprintf(stream, "\n");
}

}  // namespace pqs::util
