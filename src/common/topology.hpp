// CPU topology discovery and execution placement (src/common/topology).
//
// The placement layer's model of the host: which logical CPUs this
// process may use, how they group into physical cores (SMT siblings),
// and which NUMA node each belongs to. A multi-replica Server
// (ServerOptions::num_replicas > 1) carves the allowed set into one
// contiguous, locality-ordered core group per engine replica; each
// replica then runs on a ThreadPool pinned to its group, and replica 0
// packs the one shared weight pack on its own group, so first-touch page
// placement puts the PackedWeight on replica 0's NUMA node.
//
// Discovery reads /sys/devices/system/cpu (Linux). Everything degrades
// gracefully: a missing sysfs tree (non-Linux, containers without /sys)
// falls back to a flat single-node topology over
// hardware_concurrency() CPUs, and discover_topology_at() takes the
// sysfs root / fallback width / cpuset override as explicit parameters
// so tests drive it with a synthetic fixture tree instead of the real
// host.
//
// The allowed set is the intersection of three masks, most restrictive
// wins: CPUs online per sysfs, the calling thread's current affinity
// mask (so a `taskset`-restricted process never partitions onto CPUs it
// was told not to use), and the SWAT_CPUSET environment override (a
// comma/range list like "0-3,8"). A malformed or disjoint SWAT_CPUSET
// is ignored with a one-time warning rather than crashing serving.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace swat {

/// An ordered set of logical CPU ids. Stored sorted and deduplicated;
/// parse/to_string round-trip the canonical "0-3,8" comma/range form
/// (the SWAT_CPUSET and cpulist-sysfs format).
class CpuSet {
 public:
  CpuSet() = default;

  /// Parse a comma/range cpulist ("0-3,8", "2", "0,4-7"). Throws
  /// std::invalid_argument on malformed input: empty items, non-numeric
  /// text, reversed ranges, negative ids, or ids >= kMaxCpus.
  static CpuSet parse(const std::string& text);

  void add(int cpu);
  bool contains(int cpu) const;
  int count() const { return static_cast<int>(cpus_.size()); }
  bool empty() const { return cpus_.empty(); }
  /// The members, ascending.
  const std::vector<int>& cpus() const { return cpus_; }
  /// Canonical cpulist form ("0-3,8"); empty string for the empty set.
  std::string to_string() const;
  CpuSet intersect(const CpuSet& other) const;
  bool operator==(const CpuSet& other) const = default;

  /// Upper bound on representable cpu ids — a sanity rail against
  /// garbage cpulists, far above any host this serves.
  static constexpr int kMaxCpus = 4096;

 private:
  std::vector<int> cpus_;  // sorted ascending, unique
};

/// One logical CPU's place in the machine: its physical core (SMT
/// siblings share a core id within a node) and NUMA node.
struct TopologyCpu {
  int cpu = 0;   ///< logical cpu id (the affinity-mask bit)
  int core = 0;  ///< physical core id within its node
  int node = 0;  ///< NUMA node id
};

/// The discovered host topology, restricted to the allowed CPU set.
/// `cpus` is locality-ordered — node-major, then core-major, so SMT
/// siblings sit adjacent and a contiguous slice of the list is the most
/// local group of its size. partition() builds on that order.
struct Topology {
  std::vector<TopologyCpu> cpus;  ///< locality-ordered allowed CPUs
  CpuSet allowed;                 ///< the same CPUs as a set
  int node_count = 1;             ///< distinct NUMA nodes among `cpus`

  /// Distinct physical cores among the allowed CPUs.
  int core_count() const;

  /// Carve the allowed CPUs into `groups` contiguous slices of the
  /// locality order — floor(C/groups) CPUs each, the first C%groups
  /// groups taking one extra — so each group stays within as few nodes
  /// as possible and SMT siblings stay together. Returns an EMPTY
  /// vector when groups exceeds the allowed CPU count (each group must
  /// hold at least one CPU): the caller's signal to keep every replica
  /// on the process-wide pool rather than oversubscribe.
  std::vector<CpuSet> partition(std::size_t groups) const;
};

/// Discover the real host: sysfs at /sys/devices/system/cpu,
/// hardware_concurrency() fallback width, allowed set further
/// intersected with the calling thread's affinity mask and the
/// SWAT_CPUSET environment override.
Topology discover_topology();

/// The testable core of discovery: read the sysfs-shaped tree at
/// `sysfs_cpu_root` (an `online` cpulist file, `cpuN/topology/core_id`
/// files, and `cpuN/nodeK` entries; each layer optional, with per-cpu
/// fallbacks of core=cpu and node=0). When the tree yields no CPUs at
/// all, fall back to a flat single-node topology of
/// max(1, fallback_cpus) CPUs. `cpuset_override` is the SWAT_CPUSET
/// value (nullptr/empty = none); malformed or fully disjoint overrides
/// are ignored with a warning on stderr. Unlike discover_topology(),
/// no process-affinity intersection is applied — fixtures describe
/// exactly the machine the test wants.
Topology discover_topology_at(const std::string& sysfs_cpu_root,
                              int fallback_cpus,
                              const char* cpuset_override);

/// Pin the calling thread to `cpus` via pthread_setaffinity_np.
/// Returns true on success; false for an empty set, on failure, or on
/// non-Linux hosts (where pinning is a documented no-op).
bool pin_current_thread(const CpuSet& cpus);

/// The calling thread's current affinity mask. Empty when unavailable
/// (non-Linux). Used to save/restore affinity around first-touch
/// packing, and to keep discovery inside a taskset restriction.
CpuSet current_thread_affinity();

}  // namespace swat
