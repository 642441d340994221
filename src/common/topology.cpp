#include "common/topology.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common/contracts.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace swat {

namespace fs = std::filesystem;

namespace {

/// Strict non-negative integer parse for cpulist items; -1 on junk.
int parse_cpu_id(const std::string& text) {
  if (text.empty()) return -1;
  int value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return -1;
    value = value * 10 + (c - '0');
    if (value >= CpuSet::kMaxCpus) return -1;
  }
  return value;
}

std::string trimmed(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}

/// First line of a file, or empty when unreadable.
std::string read_line(const fs::path& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::string line;
  std::getline(in, line);
  return trimmed(line);
}

/// "cpu12" -> 12; -1 for anything else.
int cpu_dir_id(const std::string& name) {
  if (name.size() < 4 || name.compare(0, 3, "cpu") != 0) return -1;
  return parse_cpu_id(name.substr(3));
}

/// "node3" -> 3; -1 for anything else.
int node_dir_id(const std::string& name) {
  if (name.size() < 5 || name.compare(0, 4, "node") != 0) return -1;
  return parse_cpu_id(name.substr(4));
}

}  // namespace

CpuSet CpuSet::parse(const std::string& text) {
  CpuSet set;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string item = trimmed(text.substr(pos, comma - pos));
    if (item.empty()) {
      throw std::invalid_argument(
          "CpuSet::parse: empty item in cpulist \"" + text +
          "\" — expected a comma/range list like \"0-3,8\"");
    }
    const std::size_t dash = item.find('-');
    if (dash == std::string::npos) {
      const int cpu = parse_cpu_id(item);
      if (cpu < 0) {
        throw std::invalid_argument(
            "CpuSet::parse: bad cpu id \"" + item + "\" in cpulist \"" +
            text + "\" (ids are integers in [0, " +
            std::to_string(kMaxCpus) + "))");
      }
      set.add(cpu);
    } else {
      const int lo = parse_cpu_id(trimmed(item.substr(0, dash)));
      const int hi = parse_cpu_id(trimmed(item.substr(dash + 1)));
      if (lo < 0 || hi < 0 || hi < lo) {
        throw std::invalid_argument(
            "CpuSet::parse: bad range \"" + item + "\" in cpulist \"" +
            text + "\" (want lo-hi with 0 <= lo <= hi < " +
            std::to_string(kMaxCpus) + ")");
      }
      for (int cpu = lo; cpu <= hi; ++cpu) set.add(cpu);
    }
    pos = comma + 1;
    if (comma == text.size()) break;
  }
  return set;
}

void CpuSet::add(int cpu) {
  SWAT_EXPECTS(cpu >= 0 && cpu < kMaxCpus);
  const auto it = std::lower_bound(cpus_.begin(), cpus_.end(), cpu);
  if (it == cpus_.end() || *it != cpu) cpus_.insert(it, cpu);
}

bool CpuSet::contains(int cpu) const {
  return std::binary_search(cpus_.begin(), cpus_.end(), cpu);
}

std::string CpuSet::to_string() const {
  std::string out;
  std::size_t i = 0;
  while (i < cpus_.size()) {
    std::size_t j = i;
    while (j + 1 < cpus_.size() && cpus_[j + 1] == cpus_[j] + 1) ++j;
    if (!out.empty()) out += ',';
    out += std::to_string(cpus_[i]);
    if (j > i) out += '-' + std::to_string(cpus_[j]);
    i = j + 1;
  }
  return out;
}

CpuSet CpuSet::intersect(const CpuSet& other) const {
  CpuSet out;
  std::set_intersection(cpus_.begin(), cpus_.end(), other.cpus_.begin(),
                        other.cpus_.end(), std::back_inserter(out.cpus_));
  return out;
}

int Topology::core_count() const {
  std::vector<std::pair<int, int>> cores;
  cores.reserve(cpus.size());
  for (const TopologyCpu& c : cpus) cores.emplace_back(c.node, c.core);
  std::sort(cores.begin(), cores.end());
  cores.erase(std::unique(cores.begin(), cores.end()), cores.end());
  return static_cast<int>(cores.size());
}

std::vector<CpuSet> Topology::partition(std::size_t groups) const {
  SWAT_EXPECTS(groups >= 1);
  const std::size_t total = cpus.size();
  if (groups > total) return {};  // caller falls back to the global pool
  std::vector<CpuSet> out(groups);
  const std::size_t base = total / groups;
  const std::size_t extra = total % groups;  // first `extra` groups get +1
  std::size_t next = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t width = base + (g < extra ? 1 : 0);
    for (std::size_t i = 0; i < width; ++i) out[g].add(cpus[next++].cpu);
  }
  SWAT_ENSURES(next == total);
  return out;
}

Topology discover_topology_at(const std::string& sysfs_cpu_root,
                              int fallback_cpus,
                              const char* cpuset_override) {
  const fs::path root(sysfs_cpu_root);
  std::error_code ec;

  // Online CPUs: the `online` cpulist file when present, else every cpuN
  // directory, else the flat fallback.
  CpuSet online;
  const std::string online_text = read_line(root / "online");
  if (!online_text.empty()) {
    try {
      online = CpuSet::parse(online_text);
    } catch (const std::invalid_argument&) {
      // A garbled online file is treated like a missing one.
    }
  }
  if (online.empty() && fs::is_directory(root, ec)) {
    for (const fs::directory_entry& entry : fs::directory_iterator(root, ec)) {
      const int cpu = cpu_dir_id(entry.path().filename().string());
      if (cpu >= 0) online.add(cpu);
    }
  }
  if (online.empty()) {
    for (int cpu = 0; cpu < std::max(1, fallback_cpus); ++cpu) {
      online.add(cpu);
    }
  }

  // SWAT_CPUSET: most restrictive wins, but never restrict to nothing —
  // a malformed or disjoint override is ignored (with a warning), not
  // allowed to make serving impossible.
  CpuSet allowed = online;
  if (cpuset_override != nullptr && *cpuset_override != '\0') {
    try {
      const CpuSet narrowed = allowed.intersect(CpuSet::parse(cpuset_override));
      if (narrowed.empty()) {
        std::fprintf(stderr,
                     "swat: warning: SWAT_CPUSET=\"%s\" excludes every "
                     "available cpu (%s) — override ignored\n",
                     cpuset_override, allowed.to_string().c_str());
      } else {
        allowed = narrowed;
      }
    } catch (const std::invalid_argument& err) {
      std::fprintf(stderr, "swat: warning: %s — SWAT_CPUSET ignored\n",
                   err.what());
    }
  }

  Topology topo;
  topo.allowed = allowed;
  topo.cpus.reserve(static_cast<std::size_t>(allowed.count()));
  int max_node = 0;
  for (const int cpu : allowed.cpus()) {
    TopologyCpu entry;
    entry.cpu = cpu;
    entry.core = cpu;  // fallback: every cpu its own core
    entry.node = 0;
    const fs::path cpu_dir = root / ("cpu" + std::to_string(cpu));
    const int core = parse_cpu_id(read_line(cpu_dir / "topology" / "core_id"));
    if (core >= 0) entry.core = core;
    if (fs::is_directory(cpu_dir, ec)) {
      for (const fs::directory_entry& sub :
           fs::directory_iterator(cpu_dir, ec)) {
        const int node = node_dir_id(sub.path().filename().string());
        if (node >= 0) {
          entry.node = node;
          break;
        }
      }
    }
    max_node = std::max(max_node, entry.node);
    topo.cpus.push_back(entry);
  }
  topo.node_count = max_node + 1;
  // Locality order: node-major, core-major, so SMT siblings are adjacent
  // and contiguous partition slices stay within as few nodes as possible.
  std::stable_sort(topo.cpus.begin(), topo.cpus.end(),
                   [](const TopologyCpu& a, const TopologyCpu& b) {
                     if (a.node != b.node) return a.node < b.node;
                     if (a.core != b.core) return a.core < b.core;
                     return a.cpu < b.cpu;
                   });
  return topo;
}

Topology discover_topology() {
  const unsigned hc = std::thread::hardware_concurrency();
  Topology topo = discover_topology_at(
      "/sys/devices/system/cpu", hc == 0 ? 1 : static_cast<int>(hc),
      std::getenv("SWAT_CPUSET"));
  // Respect an external restriction (taskset, a container cpuset): the
  // partitioner may only hand out CPUs this process is allowed to run on.
  const CpuSet mask = current_thread_affinity();
  if (!mask.empty()) {
    const CpuSet narrowed = topo.allowed.intersect(mask);
    if (!narrowed.empty() && narrowed.count() < topo.allowed.count()) {
      topo.allowed = narrowed;
      std::erase_if(topo.cpus, [&](const TopologyCpu& c) {
        return !narrowed.contains(c.cpu);
      });
    }
  }
  return topo;
}

bool pin_current_thread(const CpuSet& cpus) {
  if (cpus.empty()) return false;
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int cpu : cpus.cpus()) {
    if (cpu < CPU_SETSIZE) CPU_SET(cpu, &mask);
  }
  return pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask) == 0;
#else
  return false;  // pinning is a documented no-op off Linux
#endif
}

CpuSet current_thread_affinity() {
  CpuSet set;
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) set.add(cpu);
    }
  }
#endif
  return set;
}

}  // namespace swat
