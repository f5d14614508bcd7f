#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ceaff/common/failpoint.h"
#include "ceaff/serve/service.h"
#include "serve/serve_test_util.h"
#include "testing/fault_injection.h"

// Chaos tests for the overload-protection path: the "serve.topk.scan"
// failpoint (evaluated at the start of every uncached candidate scan)
// slows scoring down — simulating it suddenly getting expensive — while
// concurrent callers hammer the service, and the tests assert the
// protective behaviours — shedding, degradation, recovery, batch
// retry — rather than exact latencies. Run under TSan by
// run_checks.sh: the interesting bugs here are data races between the
// admission/degradation state and the worker threads.

namespace ceaff::serve {
namespace {

using ::ceaff::testing::ScratchDir;
using ::ceaff::testing::SmallIndex;
using ::ceaff::testing::SmallIndexInput;

constexpr auto kTestDeadline = std::chrono::seconds(20);
constexpr char kScanSite[] = "serve.topk.scan";

/// Arms the scan-delay failpoint for one test and guarantees disarm on the
/// way out (including early ASSERT exits), so tests cannot leak arms into
/// each other through the process-global registry.
class ScopedScanDelay {
 public:
  ScopedScanDelay() { ceaff::failpoint::ResetHitCounts(); }
  ~ScopedScanDelay() { ceaff::failpoint::Clear(); }

  void SetMillis(int ms) {
    const std::string spec =
        ms > 0 ? std::string(kScanSite) + "=delay:" + std::to_string(ms) : "";
    ASSERT_TRUE(ceaff::failpoint::Configure(spec).ok());
  }

  uint64_t invocations() const { return ceaff::failpoint::HitCount(kScanSite); }
};

std::shared_ptr<const AlignmentIndex> SharedSmallIndex() {
  return std::make_shared<const AlignmentIndex>(SmallIndex());
}

bool DeadlinePassed(std::chrono::steady_clock::time_point start) {
  return std::chrono::steady_clock::now() - start > kTestDeadline;
}

TEST(OverloadChaosTest, SlowScansUnderConcurrencyShedThenRecover) {
  ScopedScanDelay chaos;
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  options.cache_capacity = 0;  // every request must scan
  // Sensitive admission control; degradation out of the picture.
  options.admission.target_delay_ns = 100'000;   // 100 us
  options.admission.interval_ns = 2'000'000;     // 2 ms
  options.degradation.enter_textual_delay_ns = UINT64_MAX;
  options.degradation.enter_pair_only_delay_ns = UINT64_MAX;
  AlignmentService service(SharedSmallIndex(), options);

  chaos.SetMillis(2);
  std::atomic<bool> saw_shed{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> hammer;
  for (int t = 0; t < 4; ++t) {
    hammer.emplace_back([&service, &saw_shed, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = service.TopK("alpha one", 2);
        if (!r.ok() && r.status().IsUnavailable()) {
          saw_shed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  while (!saw_shed.load(std::memory_order_relaxed) &&
         !DeadlinePassed(start)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : hammer) t.join();

  EXPECT_TRUE(saw_shed.load()) << "no shed within the deadline";
  EXPECT_GT(chaos.invocations(), 0u);
  EXPECT_GE(service.Stats().topk.shed, 1u);

  // Chaos over: the very next uncontended request must be admitted (a
  // healthy delay estimate resets the CoDel state on the spot).
  chaos.SetMillis(0);
  auto recovered = service.TopK("alpha one", 2);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
}

TEST(OverloadChaosTest, SustainedSlowScansDegradeToPairOnlyThenRecover) {
  ScopedScanDelay chaos;
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  options.cache_capacity = 0;
  // Admission out of the picture; sensitive degradation with a short
  // window and dwell so recovery fits in a unit test.
  options.admission.target_delay_ns = UINT64_MAX;
  options.degradation.enter_textual_delay_ns = 200'000;      // 200 us
  options.degradation.enter_pair_only_delay_ns = 2'000'000;  // 2 ms
  options.degradation.window_ns = 100'000'000;               // 100 ms
  options.degradation.min_dwell_ns = 20'000'000;             // 20 ms
  AlignmentService service(SharedSmallIndex(), options);

  chaos.SetMillis(2);
  std::atomic<bool> saw_pair_only_answer{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> hammer;
  for (int t = 0; t < 4; ++t) {
    hammer.emplace_back([&service, &saw_pair_only_answer, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        // A known source: answerable at every tier, including pair-only.
        auto r = service.TopK("beta two", 3);
        if (r.ok() && r->tier == ServiceTier::kPairOnly) {
          EXPECT_TRUE(r->degraded);
          ASSERT_EQ(r->candidates.size(), 1u);
          EXPECT_EQ(r->candidates[0].target_name, "beta dos");
          saw_pair_only_answer.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  while (!saw_pair_only_answer.load(std::memory_order_relaxed) &&
         !DeadlinePassed(start)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : hammer) t.join();
  ASSERT_TRUE(saw_pair_only_answer.load())
      << "never reached the pair-only tier within the deadline";
  EXPECT_GE(service.Stats().degradation.served_pair_only, 1u);

  // Load vanishes: light sequential traffic must walk the service back to
  // full scoring (one tier at a time, after each dwell).
  chaos.SetMillis(0);
  const auto recovery_start = std::chrono::steady_clock::now();
  bool recovered = false;
  while (!DeadlinePassed(recovery_start)) {
    auto r = service.TopK("beta two", 3);
    if (r.ok() && !r->degraded) {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(recovered) << "tier never returned to full";
  EXPECT_EQ(service.tier(), ServiceTier::kFull);
}

TEST(OverloadChaosTest, ReloadWhileDrainingSlowBatchKeepsEverySlotAnswered) {
  ScratchDir dir("chaos_reload");
  const std::string good = dir.File("good.idx");
  {
    auto input = SmallIndexInput();
    input.dataset = "reloaded-under-chaos";
    auto index = BuildAlignmentIndex(std::move(input));
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(SaveAlignmentIndex(index.value(), good).ok());
  }

  ScopedScanDelay chaos;
  ServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 64;
  options.cache_capacity = 16;
  AlignmentService service(SharedSmallIndex(), options);

  // A slow 32-query batch keeps the pool busy draining while the index is
  // hot-swapped underneath it (both file reload and in-process adopt).
  chaos.SetMillis(1);
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) {
    names.insert(names.end(),
                 {"alpha one", "beta two", "gamma three", "delta four"});
  }
  std::vector<StatusOr<TopKResult>> results;
  std::thread batch([&service, &names, &results] {
    results = service.BatchTopK(names, 2);
  });
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.Reload(good).ok());
    service.AdoptIndex(SharedSmallIndex());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  batch.join();

  // Every slot answered — in-flight requests keep whichever snapshot they
  // started with alive, so a swap mid-drain is invisible to them.
  ASSERT_EQ(results.size(), names.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok())
        << i << ": " << results[i].status().ToString();
    ASSERT_FALSE(results[i]->candidates.empty());
  }
  EXPECT_EQ(service.Stats().reload.errors, 0u);
}

}  // namespace
}  // namespace ceaff::serve
