#include "monitor/attributes.h"

#include "common/check.h"

namespace prepare {

namespace {
const std::array<std::string, kAttributeCount> kNames = {
    "cpu_util",   "cpu_residual", "load1",        "load5",
    "free_mem",   "mem_util",     "net_in",       "net_out",
    "disk_read",  "disk_write",   "page_faults",  "ctx_switches",
    "run_queue",
};
}  // namespace

const std::string& attribute_name(Attribute a) {
  const auto i = static_cast<std::size_t>(a);
  PREPARE_CHECK(i < kAttributeCount);
  return kNames[i];
}

std::vector<std::string> attribute_names() {
  return {kNames.begin(), kNames.end()};
}

Attribute attribute_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kAttributeCount; ++i)
    if (kNames[i] == name) return static_cast<Attribute>(i);
  PREPARE_CHECK_MSG(false, "unknown attribute name: " + name);
  return Attribute::kCpuUtil;  // unreachable
}

}  // namespace prepare
