// The 13 system-level attributes PREPARE monitors per VM.
//
// The paper's monitor collects "13 resource attributes every five
// seconds" from domain 0 (Table I) — CPU, memory, network and disk I/O
// statistics plus load averages; Fig. 3 names Residual CPU, Free Mem,
// NetIn, NetOut and Load1 explicitly. We reproduce that attribute set.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace prepare {

enum class Attribute : std::size_t {
  kCpuUtil = 0,     ///< CPU usage, percent of allocation
  kCpuResidual,     ///< unused CPU, cores ("Residual CPU" in Fig. 3)
  kLoad1,           ///< 1-minute load average (runnable demand / alloc)
  kLoad5,           ///< 5-minute load average
  kFreeMem,         ///< free memory, MB (in-guest daemon in the paper)
  kMemUtil,         ///< memory usage, percent of allocation
  kNetIn,           ///< network in, KB/s
  kNetOut,          ///< network out, KB/s
  kDiskRead,        ///< disk read, KB/s
  kDiskWrite,       ///< disk write, KB/s
  kPageFaults,      ///< major page faults /s (paging pressure)
  kCtxSwitches,     ///< context switches /s (x1000)
  kRunQueue,        ///< runnable-task queue length
};

inline constexpr std::size_t kAttributeCount = 13;

/// Short stable name ("cpu_util", "free_mem", ...) for CSV headers.
const std::string& attribute_name(Attribute a);

/// Every attribute name, in Attribute order (the per-VM feature names).
std::vector<std::string> attribute_names();

/// Reverse lookup; throws CheckFailure for unknown names.
Attribute attribute_from_name(const std::string& name);

/// One monitoring sample: the 13 attribute values of one VM at one time.
using AttributeVector = std::array<double, kAttributeCount>;

inline double get(const AttributeVector& v, Attribute a) {
  return v[static_cast<std::size_t>(a)];
}
inline void set(AttributeVector& v, Attribute a, double value) {
  v[static_cast<std::size_t>(a)] = value;
}

}  // namespace prepare
