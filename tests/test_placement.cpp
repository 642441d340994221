// Tests for the execution-placement layer (src/common/topology,
// ServerOptions::placement) and the SWAT_THREADS/SWAT_CPUSET hardening:
//
//   * CpuSet cpulist parsing round-trips and rejects malformed input;
//   * topology discovery reads a synthetic sysfs fixture tree (SMT
//     siblings, two NUMA nodes) and orders CPUs node-major/core-major;
//   * partition() math: even splits, remainders, and the
//     replicas-beyond-cores fallback-to-shared signal (empty result);
//   * parse_thread_count clamps junk/zero/negative/overflow with a
//     warning instead of letting them flow through;
//   * pinned per-replica pools + ScopedPoolBinding route every free
//     parallel_for without changing a single result bit: kPartitioned
//     serving is bit-identical to the solo sequential oracle across
//     replica counts, thread counts, arrival orders, and private vs
//     shared weight packs (footprint N packs vs 1);
//   * the chaos harness (PR 7) holds its conservation laws under
//     partitioned placement too;
//   * a warmed engine bound to a pinned pool still performs ZERO
//     steady-state heap allocations (global operator-new counter).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <new>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/thread_pool.hpp"
#include "common/topology.hpp"
#include "runtime/engine.hpp"
#include "runtime/server.hpp"
#include "tensor/kernels.hpp"
#include "test_util.hpp"

// ------------------------------------------------ global alloc counter ----
// Same counter as tests/test_runtime.cpp: every global operator new in
// this binary bumps it, so the steady-state test below can assert a
// warmed engine on a PINNED pool allocates exactly nothing per run.

namespace {

std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  ++g_alloc_count;
  const std::size_t align = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
// The nothrow forms must be replaced too — libstdc++'s temporary buffers
// (e.g. stable_sort) allocate through them, and mixing the default nothrow
// new with our malloc-backed delete trips ASan's alloc-dealloc matching.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  return std::malloc(n ? n : 1);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace swat {
namespace {

namespace fs = std::filesystem;

using model::AttentionBackend;
using model::EncoderConfig;

using swat::testing::ThreadCountGuard;

/// The compact encoder geometry the runtime tests standardize on.
EncoderConfig small_config() {
  EncoderConfig cfg;
  cfg.d_model = 64;
  cfg.num_heads = 2;
  cfg.ffn_mult = 2;
  cfg.layers = 2;
  cfg.backend = AttentionBackend::kWindowExact;
  cfg.swat = SwatConfig();
  cfg.swat.head_dim = 32;
  cfg.swat.window_cores = 32;
  cfg.weight_seed = 5;
  return cfg;
}

std::vector<InferenceRequest> make_requests(
    const EncoderConfig& cfg, const std::vector<std::int64_t>& lengths) {
  Rng rng(99);
  std::vector<InferenceRequest> reqs;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    InferenceRequest req;
    req.id = 1000 + i;
    req.input = random_normal(lengths[i], cfg.d_model, rng);
    reqs.push_back(std::move(req));
  }
  return reqs;
}

InferenceRequest make_request(std::uint64_t id, std::int64_t len,
                              Priority priority = Priority::kInteractive,
                              Seconds deadline = Seconds{0.0}) {
  Rng rng(static_cast<std::uint64_t>(id) + 7);
  InferenceRequest req;
  req.id = id;
  req.input = random_normal(len, 64, rng);
  req.priority = priority;
  req.deadline = deadline;
  return req;
}

// --------------------------------------------------------- CpuSet parse ----

TEST(CpuSet, ParsesAndRoundTripsCanonicalForm) {
  const CpuSet set = CpuSet::parse("0-3,8");
  EXPECT_EQ(set.count(), 5);
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(3));
  EXPECT_TRUE(set.contains(8));
  EXPECT_FALSE(set.contains(4));
  EXPECT_EQ(set.to_string(), "0-3,8");
  EXPECT_EQ(CpuSet::parse("2").to_string(), "2");
  // Whitespace around items and ranges is tolerated; duplicates and
  // overlapping ranges collapse (the set is sorted-unique).
  EXPECT_EQ(CpuSet::parse(" 0 , 2 - 4 ").to_string(), "0,2-4");
  EXPECT_EQ(CpuSet::parse("1,1,0-2").to_string(), "0-2");
  // Adjacent singletons merge into a range on the way back out.
  EXPECT_EQ(CpuSet::parse("5,7,6").to_string(), "5-7");
  EXPECT_TRUE(CpuSet{}.empty());
  EXPECT_EQ(CpuSet{}.to_string(), "");
}

TEST(CpuSet, RejectsMalformedCpulists) {
  EXPECT_THROW(CpuSet::parse(""), std::invalid_argument);
  EXPECT_THROW(CpuSet::parse("1,,2"), std::invalid_argument);
  EXPECT_THROW(CpuSet::parse("abc"), std::invalid_argument);
  EXPECT_THROW(CpuSet::parse("3-1"), std::invalid_argument);
  EXPECT_THROW(CpuSet::parse("-1"), std::invalid_argument);
  EXPECT_THROW(CpuSet::parse("5-"), std::invalid_argument);
  EXPECT_THROW(CpuSet::parse("1.5"), std::invalid_argument);
  // The kMaxCpus rail rejects absurd ids instead of allocating for them.
  EXPECT_THROW(CpuSet::parse(std::to_string(CpuSet::kMaxCpus)),
               std::invalid_argument);
  EXPECT_NO_THROW(CpuSet::parse(std::to_string(CpuSet::kMaxCpus - 1)));
}

TEST(CpuSet, IntersectAndAdd) {
  CpuSet a = CpuSet::parse("0-5");
  const CpuSet b = CpuSet::parse("4-9");
  EXPECT_EQ(a.intersect(b).to_string(), "4-5");
  EXPECT_TRUE(a.intersect(CpuSet{}).empty());
  a.add(4);  // duplicate add is a no-op
  EXPECT_EQ(a.count(), 6);
  EXPECT_EQ(a.cpus().size(), 6u);
  EXPECT_TRUE(std::is_sorted(a.cpus().begin(), a.cpus().end()));
}

// -------------------------------------------------- SWAT_THREADS parser ----

TEST(ParseThreadCount, NullAndValidInputs) {
  std::string warning = "stale";
  EXPECT_EQ(parse_thread_count(nullptr, 7, &warning), 7);
  EXPECT_TRUE(warning.empty());  // cleared, and null is not a warning
  EXPECT_EQ(parse_thread_count("4", 7, &warning), 4);
  EXPECT_TRUE(warning.empty());
  EXPECT_EQ(parse_thread_count(" 8 ", 7, &warning), 8);  // whitespace ok
  EXPECT_TRUE(warning.empty());
  EXPECT_EQ(parse_thread_count("1", 7, nullptr), 1);  // warning optional
}

TEST(ParseThreadCount, NonNumericFallsBackWithWarning) {
  std::string warning;
  EXPECT_EQ(parse_thread_count("abc", 7, &warning), 7);
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(parse_thread_count("4x", 7, &warning), 7);  // trailing junk
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(parse_thread_count("", 7, &warning), 7);
  EXPECT_FALSE(warning.empty());
}

TEST(ParseThreadCount, ZeroAndNegativeClampToOne) {
  std::string warning;
  EXPECT_EQ(parse_thread_count("0", 7, &warning), 1);
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(parse_thread_count("-3", 7, &warning), 1);
  EXPECT_FALSE(warning.empty());
}

TEST(ParseThreadCount, OverflowClampsToRail) {
  std::string warning;
  // Larger than any long: strtol reports ERANGE.
  EXPECT_EQ(parse_thread_count("99999999999999999999", 7, &warning), 1024);
  EXPECT_FALSE(warning.empty());
  // In-range but absurd: the 1024-thread rail still applies.
  EXPECT_EQ(parse_thread_count("2000", 7, &warning), 1024);
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(parse_thread_count("1024", 7, &warning), 1024);
  EXPECT_TRUE(warning.empty());  // the rail itself is a valid request
}

// ------------------------------------------------- topology fixture tree ----

/// A synthetic /sys/devices/system/cpu tree under the test temp dir.
class SysfsFixture {
 public:
  explicit SysfsFixture(const std::string& name)
      : root_(fs::path(::testing::TempDir()) / name) {
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~SysfsFixture() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void write(const fs::path& rel, const std::string& text) {
    fs::create_directories((root_ / rel).parent_path());
    std::ofstream out(root_ / rel);
    out << text << "\n";
  }

  void add_cpu(int cpu, int core, int node) {
    const fs::path dir = "cpu" + std::to_string(cpu);
    write(dir / "topology" / "core_id", std::to_string(core));
    fs::create_directories(root_ / dir / ("node" + std::to_string(node)));
  }

  std::string path() const { return root_.string(); }

 private:
  fs::path root_;
};

/// 8 logical CPUs, 2 NUMA nodes, SMT pairs: node 0 holds cpus {0,2} on
/// core 0 and {1,3} on core 1; node 1 mirrors with cpus {4,6} and {5,7}.
SysfsFixture make_smt_fixture(const std::string& name) {
  SysfsFixture fix(name);
  fix.write("online", "0-7");
  fix.add_cpu(0, 0, 0);
  fix.add_cpu(2, 0, 0);
  fix.add_cpu(1, 1, 0);
  fix.add_cpu(3, 1, 0);
  fix.add_cpu(4, 0, 1);
  fix.add_cpu(6, 0, 1);
  fix.add_cpu(5, 1, 1);
  fix.add_cpu(7, 1, 1);
  return fix;
}

TEST(Topology, FixtureTreeYieldsLocalityOrder) {
  const SysfsFixture fix = make_smt_fixture("swat_topo_order");
  const Topology topo = discover_topology_at(fix.path(), 1, nullptr);
  EXPECT_EQ(topo.allowed.to_string(), "0-7");
  EXPECT_EQ(topo.node_count, 2);
  EXPECT_EQ(topo.core_count(), 4);
  ASSERT_EQ(topo.cpus.size(), 8u);
  // Node-major, core-major: SMT siblings adjacent, nodes contiguous.
  const std::vector<int> expected = {0, 2, 1, 3, 4, 6, 5, 7};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(topo.cpus[i].cpu, expected[i]) << "slot " << i;
  }
  EXPECT_EQ(topo.cpus[0].node, 0);
  EXPECT_EQ(topo.cpus[7].node, 1);
}

TEST(Topology, PartitionMathEvenRemainderAndFallback) {
  const SysfsFixture fix = make_smt_fixture("swat_topo_partition");
  const Topology topo = discover_topology_at(fix.path(), 1, nullptr);

  // Even split: two groups of four, each one whole NUMA node.
  const std::vector<CpuSet> halves = topo.partition(2);
  ASSERT_EQ(halves.size(), 2u);
  EXPECT_EQ(halves[0].to_string(), "0-3");
  EXPECT_EQ(halves[1].to_string(), "4-7");

  // Remainder: 8 over 3 = 3+3+2, carved off the locality order
  // [0,2,1,3 | 4,6,5,7] — the first groups take the extra CPU.
  const std::vector<CpuSet> thirds = topo.partition(3);
  ASSERT_EQ(thirds.size(), 3u);
  EXPECT_EQ(thirds[0].to_string(), "0-2");
  EXPECT_EQ(thirds[1].to_string(), "3-4,6");
  EXPECT_EQ(thirds[2].to_string(), "5,7");
  int total = 0;
  for (const CpuSet& g : thirds) total += g.count();
  EXPECT_EQ(total, 8);

  // One group per CPU still works; one MORE than the CPUs cannot give
  // every group a core — the empty result is the fall-back-to-shared
  // signal the server acts on.
  EXPECT_EQ(topo.partition(8).size(), 8u);
  EXPECT_TRUE(topo.partition(9).empty());
  EXPECT_THROW(topo.partition(0), std::invalid_argument);
}

TEST(Topology, CpusetOverrideNarrowsButNeverEmpties) {
  const SysfsFixture fix = make_smt_fixture("swat_topo_cpuset");
  // A well-formed override intersects.
  const Topology narrowed =
      discover_topology_at(fix.path(), 1, "1,3-5");
  EXPECT_EQ(narrowed.allowed.to_string(), "1,3-5");
  EXPECT_EQ(narrowed.cpus.size(), 4u);
  // Disjoint and malformed overrides are ignored (with a warning), never
  // allowed to leave serving with zero CPUs.
  EXPECT_EQ(discover_topology_at(fix.path(), 1, "100-200")
                .allowed.to_string(),
            "0-7");
  EXPECT_EQ(discover_topology_at(fix.path(), 1, "not-a-cpulist")
                .allowed.to_string(),
            "0-7");
}

TEST(Topology, MissingSysfsFallsBackToFlatSingleNode) {
  const fs::path missing =
      fs::path(::testing::TempDir()) / "swat_topo_nonexistent";
  std::error_code ec;
  fs::remove_all(missing, ec);
  const Topology topo = discover_topology_at(missing.string(), 6, nullptr);
  EXPECT_EQ(topo.allowed.to_string(), "0-5");
  EXPECT_EQ(topo.node_count, 1);
  EXPECT_EQ(topo.core_count(), 6);  // per-cpu fallback: every cpu its own core
  EXPECT_FALSE(topo.partition(6).empty());
  EXPECT_TRUE(topo.partition(7).empty());
  // A degenerate fallback width still yields one CPU, never zero.
  EXPECT_EQ(discover_topology_at(missing.string(), 0, nullptr).allowed.count(),
            1);
}

TEST(Topology, RealDiscoveryRespectsProcessAffinity) {
  const Topology topo = discover_topology();
  EXPECT_GE(topo.allowed.count(), 1);
  EXPECT_GE(topo.node_count, 1);
  EXPECT_GE(topo.core_count(), 1);
#if defined(__linux__)
  // The partitioner may only hand out CPUs this process can run on — the
  // property that keeps a taskset-restricted CI job honest.
  const CpuSet mask = current_thread_affinity();
  ASSERT_FALSE(mask.empty());
  for (const TopologyCpu& c : topo.cpus) {
    EXPECT_TRUE(mask.contains(c.cpu)) << "cpu " << c.cpu;
  }
#endif
}

// -------------------------------------------- pinned pools and bindings ----

TEST(PinnedPool, WorkersPinToTheGroup) {
  const CpuSet allowed = current_thread_affinity();
  CpuSet group;
  if (!allowed.empty()) group.add(allowed.cpus().front());
  ThreadPool pool(2, group);
  EXPECT_EQ(pool.affinity(), group);
  EXPECT_EQ(pool.num_threads(), 2);
  std::atomic<std::int64_t> covered{0};
  parallel_for(pool, 0, 1000, 1, [&](std::int64_t b, std::int64_t e) {
    covered.fetch_add(e - b);
  });
  EXPECT_EQ(covered.load(), 1000);
#if defined(__linux__)
  if (!group.empty()) {
    // One worker (the caller is not the pool's to pin), pinned to an
    // allowed CPU — the affinity call must have stuck. The worker bumps
    // the counter on its own schedule, so give it a bounded moment.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (pool.pinned_workers() != 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(pool.pinned_workers(), 1);
  }
#else
  EXPECT_EQ(pool.pinned_workers(), 0);  // documented no-op off Linux
#endif
  // An unpinned pool reports zero regardless of platform.
  ThreadPool plain(3);
  EXPECT_TRUE(plain.affinity().empty());
  EXPECT_EQ(plain.pinned_workers(), 0);
}

TEST(PoolBinding, CurrentPoolFollowsBindingsAndNests) {
  EXPECT_EQ(&current_pool(), &ThreadPool::instance());
  ThreadPool solo(1);
  ThreadPool duo(2);
  {
    ScopedPoolBinding bind(&solo);
    EXPECT_EQ(&current_pool(), &solo);
    {
      ScopedPoolBinding noop(nullptr);  // keeps the current routing
      EXPECT_EQ(&current_pool(), &solo);
    }
    {
      ScopedPoolBinding nested(&duo);
      EXPECT_EQ(&current_pool(), &duo);
    }
    EXPECT_EQ(&current_pool(), &solo);  // restored
  }
  EXPECT_EQ(&current_pool(), &ThreadPool::instance());
}

TEST(PoolBinding, FreeParallelForRoutesToTheBoundPool) {
  // Global pool: 4 threads. Bound pool: 1 thread. If the free
  // parallel_for routes through the binding, every chunk runs inline on
  // the calling thread — deterministically observable, unlike "how many
  // workers happened to wake".
  ThreadCountGuard guard(4);
  ThreadPool solo(1);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  {
    ScopedPoolBinding bind(&solo);
    parallel_for(0, 4096, 1, [&](std::int64_t, std::int64_t) {
      std::lock_guard lock(mutex);
      ids.insert(std::this_thread::get_id());
    });
  }
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
  // parallel_for_2d routes the same way.
  ids.clear();
  {
    ScopedPoolBinding bind(&solo);
    parallel_for_2d(64, 1, 64, 1,
                    [&](std::int64_t, std::int64_t, std::int64_t,
                        std::int64_t) {
                      std::lock_guard lock(mutex);
                      ids.insert(std::this_thread::get_id());
                    });
  }
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

// ----------------------------------------------- parallel first-touch pack ----

TEST(PackWeight, ParallelPackBitIdenticalAcrossThreadCounts) {
  Rng rng(31);
  // Ragged shape: 70 output columns = two full panels + a 6-wide tail,
  // so the padding path is exercised.
  const MatrixF w = random_normal(70, 48, rng);
  PackedWeight p1, p4;
  {
    ThreadCountGuard guard(1);
    pack_weight_nt(w, p1);
  }
  {
    ThreadCountGuard guard(4);
    pack_weight_nt(w, p4);
  }
  ASSERT_EQ(p1.data.size(), p4.data.size());
  ASSERT_FALSE(p1.data.empty());
  EXPECT_EQ(std::memcmp(p1.data.data(), p4.data.data(),
                        p1.data.size() * sizeof(float)),
            0);
  // The default-init buffer relies on the pack writing its own padding:
  // every lane beyond the 6-wide tail must be exactly zero.
  const std::int64_t last = p1.panels() - 1;
  for (std::int64_t kk = 0; kk < p1.in_features; ++kk) {
    for (std::int64_t l = 70 % PackedWeight::kPanel; l < PackedWeight::kPanel;
         ++l) {
      ASSERT_EQ(p4.data[static_cast<std::size_t>(
                    (last * p1.in_features + kk) * PackedWeight::kPanel + l)],
                0.0f)
          << "padding lane " << l << " k " << kk;
    }
  }
}

// --------------------------------------------- partitioned serving oracle ----

/// Every test starts and ends with the injector in its pristine no-op
/// state, so an armed point can never leak into an unrelated test.
class PlacementTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().reset(); }
  void TearDown() override { FaultInjector::global().reset(); }
};

/// The serving attention backends: the banded stable-softmax host kernel
/// and the fused streaming kernel (Eq. 1) the benchmarks serve with.
const AttentionBackend kServingBackends[] = {AttentionBackend::kWindowExact,
                                             AttentionBackend::kFusedStreaming};

std::string backend_name(
    const ::testing::TestParamInfo<AttentionBackend>& info) {
  return info.param == AttentionBackend::kFusedStreaming ? "FusedStreaming"
                                                         : "WindowExact";
}

/// small_config() served through `backend`.
EncoderConfig serving_config(AttentionBackend backend) {
  EncoderConfig cfg = small_config();
  cfg.backend = backend;
  return cfg;
}

/// PlacementTest over each serving backend.
class PlacementBackendTest
    : public PlacementTest,
      public ::testing::WithParamInterface<AttentionBackend> {};

/// The acceptance bar: kPartitioned output is bit-identical to the solo
/// sequential oracle across num_replicas {1,2,4} x SWAT_THREADS {1,4} x
/// arrival orders x share_weight_pack {false,true}, for each serving
/// backend — pinning, per-replica pools and a shared pack (first-touched
/// on replica 0's group) move work and pages, never bits. The footprint
/// is one pack when shared, one per replica when private.
TEST_P(PlacementBackendTest,
       PartitionedBitIdentityAcrossReplicasOrdersAndThreads) {
  const EncoderConfig cfg = serving_config(GetParam());
  const std::vector<std::int64_t> lengths = {5, 63, 64, 65, 1, 40, 128, 64,
                                             17, 33, 80, 64};
  std::vector<InferenceRequest> reqs = make_requests(cfg, lengths);
  const std::size_t single_pack_floats =
      Engine::compile(cfg, 8).packed_weight_floats();
  ASSERT_GT(single_pack_floats, 0u);

  std::vector<RequestResult> oracle;
  for (const InferenceRequest& req : reqs) {
    oracle.push_back(testing::solo_result(cfg, req));
  }

  std::vector<std::vector<std::size_t>> orders;
  std::vector<std::size_t> base(reqs.size());
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = i;
  orders.push_back(base);
  orders.emplace_back(base.rbegin(), base.rend());
  std::mt19937_64 shuffle_rng(7);
  std::shuffle(base.begin(), base.end(), shuffle_rng);
  orders.push_back(base);

  for (const int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    for (const std::size_t replicas : {1u, 2u, 4u}) {
      for (const bool share : {false, true}) {
        for (const std::vector<std::size_t>& order : orders) {
          SCOPED_TRACE("threads " + std::to_string(threads) + " replicas " +
                       std::to_string(replicas) + " share " +
                       std::to_string(share));
          ServerOptions opt;
          opt.num_replicas = replicas;
          opt.placement = PlacementPolicy::kPartitioned;
          opt.share_weight_pack = share;
          opt.replica_queue_depth = replicas > 1 ? 1 : 0;
          Server server(cfg, opt);
          EXPECT_EQ(server.packed_weight_floats(),
                    (share ? 1 : replicas) * single_pack_floats);
          std::vector<Server::Ticket> tickets(reqs.size());
          for (const std::size_t i : order) {
            tickets[i] = server.submit(reqs[i]);
          }
          for (std::size_t i = 0; i < reqs.size(); ++i) {
            const RequestResult got = tickets[i].get();
            EXPECT_EQ(got.id, reqs[i].id);
            testing::expect_matrix_equal(got.output, oracle[i].output,
                                         "partitioned pool vs solo oracle");
            EXPECT_EQ(got.counters.tokens, oracle[i].counters.tokens);
            EXPECT_EQ(got.counters.heads_run, oracle[i].counters.heads_run);
            EXPECT_EQ(got.counters.model_flops,
                      oracle[i].counters.model_flops);
          }
          server.drain();
          const ServerStats stats = server.stats();
          ASSERT_EQ(stats.replicas.size(), replicas);
          std::int64_t served = 0;
          for (const ReplicaStats& rep : stats.replicas) {
            served += rep.served();
          }
          EXPECT_EQ(served, static_cast<std::int64_t>(reqs.size()));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, PlacementBackendTest,
                         ::testing::ValuesIn(kServingBackends), backend_name);

TEST_F(PlacementTest, PartitionedStatsExposeCoreGroups) {
  const EncoderConfig cfg = small_config();
  constexpr std::size_t kReplicas = 2;
  ServerOptions opt;
  opt.num_replicas = kReplicas;
  opt.placement = PlacementPolicy::kPartitioned;
  Server server(cfg, opt);
  std::vector<Server::Ticket> tickets =
      server.submit_many(make_requests(cfg, {16, 32, 64}));
  for (Server::Ticket& t : tickets) t.get();
  server.drain();
  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.replicas.size(), kReplicas);

  // What the server should have partitioned: same discovery, same thread.
  const std::vector<CpuSet> groups =
      discover_topology().partition(kReplicas);
  if (groups.empty()) {
    // Fewer allowed CPUs than replicas: wholesale shared fallback.
    for (const ReplicaStats& rep : stats.replicas) {
      EXPECT_TRUE(rep.core_group.empty());
      EXPECT_EQ(rep.pinned_threads, 0);
    }
  } else {
    for (std::size_t r = 0; r < kReplicas; ++r) {
      EXPECT_EQ(stats.replicas[r].core_group, groups[r].to_string());
#if defined(__linux__)
      // At minimum the replica's own worker thread pinned itself.
      EXPECT_GE(stats.replicas[r].pinned_threads, 1);
#endif
    }
  }
}

TEST_F(PlacementTest, SharedPlacementLeavesStatsUnpinned) {
  const EncoderConfig cfg = small_config();
  ServerOptions opt;
  opt.num_replicas = 2;  // placement defaults to kShared
  Server server(cfg, opt);
  std::vector<Server::Ticket> tickets =
      server.submit_many(make_requests(cfg, {16, 32}));
  for (Server::Ticket& t : tickets) t.get();
  server.drain();
  for (const ReplicaStats& rep : server.stats().replicas) {
    EXPECT_TRUE(rep.core_group.empty());
    EXPECT_EQ(rep.pinned_threads, 0);
  }
}

/// The PR 7 chaos harness under partitioned placement: every ticket
/// resolves, drain() returns, and the per-replica conservation law holds
/// with pinned pools in the mix.
TEST_F(PlacementTest, ChaosConservationHoldsUnderPartitionedPlacement) {
  const char* const points[] = {"queue.push",      "queue.pop",
                                "batcher.push",    "executor.execute",
                                "replica.execute", "dispatch.place"};
  const EncoderConfig cfg = small_config();

  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const auto pick = [&](std::int64_t lo, std::int64_t hi) {
      return static_cast<std::int64_t>(
          std::uniform_int_distribution<std::int64_t>(lo, hi)(rng));
    };

    FaultInjector::global().reset();
    ServerOptions opt;
    opt.placement = PlacementPolicy::kPartitioned;
    opt.num_replicas = static_cast<std::size_t>(1 << pick(0, 2));  // 1/2/4
    opt.replica_queue_depth = static_cast<std::size_t>(pick(0, 2));
    opt.queue_capacity = static_cast<std::size_t>(pick(8, 64));
    opt.admission = pick(0, 1) == 0 ? OverflowPolicy::kBlock
                                    : OverflowPolicy::kShedBulk;
    opt.batching.max_batch_requests = pick(1, 6);
    opt.share_weight_pack = pick(0, 1) == 1;

    for (const char* point : points) {
      if (pick(0, 2) != 0) continue;  // ~1/3 of points armed per seed
      FaultAction action;
      const std::int64_t kind = pick(0, 2);
      action.kind = kind == 0   ? FaultKind::kThrow
                    : kind == 1 ? FaultKind::kDelay
                                : FaultKind::kWake;
      action.delay = Seconds{static_cast<double>(pick(1, 20)) * 1e-3};
      action.skip = static_cast<int>(pick(0, 5));
      action.count = static_cast<int>(pick(1, 3));
      FaultInjector::global().arm(point, action);
    }

    {
      Server server(cfg, opt);
      const int submitters = static_cast<int>(pick(2, 3));
      const int per_thread = static_cast<int>(pick(5, 8));
      std::vector<std::vector<Server::Ticket>> tickets(
          static_cast<std::size_t>(submitters));
      std::vector<std::thread> threads;
      for (int t = 0; t < submitters; ++t) {
        const std::uint64_t thread_seed =
            seed * 1000 + static_cast<std::uint64_t>(t);
        threads.emplace_back([&, t, thread_seed] {
          std::mt19937_64 local(thread_seed);
          const auto local_pick = [&](std::int64_t lo, std::int64_t hi) {
            return static_cast<std::int64_t>(
                std::uniform_int_distribution<std::int64_t>(lo, hi)(local));
          };
          for (int k = 0; k < per_thread; ++k) {
            const Priority priority = local_pick(0, 2) == 0
                                          ? Priority::kBulk
                                          : Priority::kInteractive;
            tickets[static_cast<std::size_t>(t)].push_back(server.submit(
                make_request(thread_seed * 100 + static_cast<std::uint64_t>(k),
                             8 + 8 * local_pick(0, 4), priority)));
          }
        });
      }
      for (std::thread& thread : threads) thread.join();

      auto drained = std::async(std::launch::async, [&] { server.drain(); });
      ASSERT_EQ(drained.wait_for(std::chrono::seconds(15)),
                std::future_status::ready)
          << "drain() hung";

      std::int64_t resolved = 0;
      for (auto& lane : tickets) {
        for (Server::Ticket& ticket : lane) {
          ASSERT_EQ(ticket.wait_for(std::chrono::seconds(0)),
                    std::future_status::ready)
              << "a ticket never resolved";
          try {
            ticket.get();
          } catch (const std::exception&) {
          }
          ++resolved;
        }
      }
      EXPECT_EQ(resolved, submitters * per_thread);

      const ServerStats stats = server.stats();
      for (std::size_t r = 0; r < stats.replicas.size(); ++r) {
        const ReplicaStats& rep = stats.replicas[r];
        EXPECT_EQ(rep.in_flight(), 0) << "replica " << r << " drained";
        EXPECT_EQ(rep.dispatched(), rep.served() + rep.failed())
            << "replica " << r << " conservation";
      }
    }
    FaultInjector::global().reset();
  }
}

// -------------------------------------------------- zero-alloc steady state ----

class PlacementSteadyState
    : public ::testing::TestWithParam<AttentionBackend> {};

/// The zero-allocation guarantee survives placement: a warmed engine
/// whose fan-outs are bound to a PINNED single-thread pool performs no
/// heap allocation per run, for each serving backend (same counter
/// methodology as tests/test_runtime.cpp — single-threaded so the pool's
/// O(1) fork-join bookkeeping is excluded).
TEST_P(PlacementSteadyState, PinnedBoundEngineRunAllocatesNothing) {
  ASSERT_GT(g_alloc_count.load(), 0u);

  const CpuSet allowed = current_thread_affinity();
  CpuSet group;
  if (!allowed.empty()) group.add(allowed.cpus().front());
  ThreadPool pool(1, group);

  const EncoderConfig cfg = serving_config(GetParam());
  Engine engine(cfg, &pool);
  ExecutionPlan plan = engine.make_plan(200);

  const std::vector<std::vector<std::int64_t>> shapes = {
      {31, 64, 17, 50}, {5}, {64, 64, 64}, {200}};
  std::vector<std::pair<MatrixF, std::vector<std::int64_t>>> batches;
  Rng rng(123);
  for (const auto& lengths : shapes) {
    std::vector<std::int64_t> offsets = {0};
    std::int64_t rows = 0;
    for (const std::int64_t len : lengths) offsets.push_back(rows += len);
    batches.emplace_back(random_normal(rows, cfg.d_model, rng),
                         std::move(offsets));
  }
  std::vector<model::AttentionStats> stats(8);

  // Warmup binds thread-local staging/workspace at their high-water sizes.
  for (auto& [packed, offsets] : batches) {
    engine.run(plan, packed, offsets,
               std::span<model::AttentionStats>(stats.data(),
                                                offsets.size() - 1));
  }

  const std::size_t before = g_alloc_count.load();
  for (auto& [packed, offsets] : batches) {
    engine.run(plan, packed, offsets,
               std::span<model::AttentionStats>(stats.data(),
                                                offsets.size() - 1));
  }
  EXPECT_EQ(g_alloc_count.load(), before)
      << "a warmed pinned-pool run allocated";
}

INSTANTIATE_TEST_SUITE_P(Backends, PlacementSteadyState,
                         ::testing::ValuesIn(kServingBackends), backend_name);

}  // namespace
}  // namespace swat
