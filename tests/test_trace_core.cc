// Unit tests for TraceCore (trace-driven core model) and RequestTracker.
#include <gtest/gtest.h>

#include "common/assert.h"
#include "core/trace_core.h"

namespace psllc::core {
namespace {

struct Harness {
  RequestTracker tracker{2, /*keep_records=*/true};
  mem::PrivateCacheConfig caches;  // defaults: 1-cycle L1, 10-cycle L2
  TraceCore core{CoreId{0}, caches, /*pwb_capacity=*/8, tracker, 1};
};

Addr addr_of_line(LineAddr line) { return line * 64; }

TEST(TraceCore, EmptyTraceIsDone) {
  Harness h;
  EXPECT_TRUE(h.core.trace_done());
  h.core.run_until(1000);
  EXPECT_TRUE(h.core.trace_done());
  EXPECT_EQ(h.core.finish_time(), 0);
}

TEST(TraceCore, MissBlocksAndIssuesRequest) {
  Harness h;
  h.core.set_trace(Trace{MemOp{addr_of_line(0x10), AccessType::kRead, 0}});
  h.core.run_until(100);
  EXPECT_TRUE(h.core.blocked());
  EXPECT_FALSE(h.core.trace_done());
  ASSERT_TRUE(h.core.buffers().has_request());
  const bus::BusMessage& msg = h.core.buffers().request();
  EXPECT_EQ(msg.line, 0x10u);
  EXPECT_EQ(msg.enqueued_at, 11);  // L1 (1) + L2 (10) tag checks
  EXPECT_TRUE(h.tracker.has_inflight(CoreId{0}));
  EXPECT_EQ(h.tracker.inflight(CoreId{0}).issued, 11);
}

TEST(TraceCore, GapDelaysIssueWithoutDoubleCounting) {
  Harness h;
  h.core.set_trace(Trace{MemOp{addr_of_line(0x10), AccessType::kRead, 200}});
  h.core.run_until(50);   // gap applied once; op not started yet
  EXPECT_FALSE(h.core.blocked());
  h.core.run_until(150);  // still before the gap expires
  EXPECT_FALSE(h.core.blocked());
  h.core.run_until(300);
  EXPECT_TRUE(h.core.blocked());
  EXPECT_EQ(h.core.buffers().request().enqueued_at, 211);
}

TEST(TraceCore, ResponseUnblocksAndAdvances) {
  Harness h;
  h.core.set_trace(Trace{MemOp{addr_of_line(0x10), AccessType::kRead, 0},
                         MemOp{addr_of_line(0x10), AccessType::kRead, 0}});
  h.core.run_until(100);
  ASSERT_TRUE(h.core.blocked());
  const std::uint64_t id = h.core.outstanding_request_id();
  const auto victim = h.core.on_response(250);
  EXPECT_FALSE(victim.has_value());
  h.tracker.on_presented(CoreId{0}, id, 200);
  h.tracker.on_completed(CoreId{0}, id, 250);
  EXPECT_FALSE(h.core.blocked());
  // Second access: L1 hit at 250 -> finishes at 251.
  h.core.run_until(1000);
  EXPECT_TRUE(h.core.trace_done());
  EXPECT_EQ(h.core.finish_time(), 251);
}

TEST(TraceCore, SetTraceWhileBlockedAsserts) {
  Harness h;
  h.core.set_trace(Trace{MemOp{addr_of_line(0x10), AccessType::kRead, 0}});
  h.core.run_until(100);
  EXPECT_THROW(h.core.set_trace(Trace{}), AssertionError);
}

TEST(TraceCore, ResponseWithoutRequestAsserts) {
  Harness h;
  EXPECT_THROW(h.core.on_response(100), AssertionError);
}

// --- RequestTracker ---------------------------------------------------------

TEST(RequestTracker, LifecycleAndLatencies) {
  RequestTracker tracker(2, /*keep_records=*/true);
  const auto id = tracker.begin(CoreId{1}, 0x5, AccessType::kWrite, 100);
  tracker.on_presented(CoreId{1}, id, 150);
  tracker.on_presented(CoreId{1}, id, 350);  // retry keeps first_presented
  tracker.on_writeback_sent(CoreId{1});
  tracker.on_completed(CoreId{1}, id, 400);
  EXPECT_EQ(tracker.completed_requests(), 1);
  const auto& record = tracker.records().front();
  EXPECT_EQ(record.first_presented, 150);
  EXPECT_EQ(record.presentations, 2);
  EXPECT_EQ(record.writebacks_during, 1);
  EXPECT_EQ(record.service_latency(), 250);
  EXPECT_EQ(record.total_latency(), 300);
  EXPECT_EQ(tracker.service_latency(CoreId{1}).max(), 250);
  EXPECT_EQ(tracker.max_service_latency(), 250);
  EXPECT_EQ(tracker.worst_request().id, id);
  EXPECT_FALSE(tracker.has_inflight(CoreId{1}));
}

TEST(RequestTracker, OneOutstandingPerCore) {
  RequestTracker tracker(2);
  (void)tracker.begin(CoreId{0}, 0x1, AccessType::kRead, 0);
  EXPECT_THROW(tracker.begin(CoreId{0}, 0x2, AccessType::kRead, 5),
               AssertionError);
  // Other cores are independent.
  EXPECT_NO_THROW(tracker.begin(CoreId{1}, 0x2, AccessType::kRead, 5));
}

TEST(RequestTracker, CompletionRequiresPresentation) {
  RequestTracker tracker(1);
  const auto id = tracker.begin(CoreId{0}, 0x1, AccessType::kRead, 0);
  EXPECT_THROW(tracker.on_completed(CoreId{0}, id, 100), AssertionError);
}

TEST(RequestTracker, PresentingWithTheWrongCoreAsserts) {
  RequestTracker tracker(2);
  const auto id = tracker.begin(CoreId{0}, 0x1, AccessType::kRead, 0);
  // Core 1 has no request in flight at all.
  EXPECT_THROW(tracker.on_presented(CoreId{1}, id, 10), AssertionError);
  // Core 1 has one, but `id` belongs to core 0.
  const auto other = tracker.begin(CoreId{1}, 0x2, AccessType::kRead, 0);
  EXPECT_THROW(tracker.on_presented(CoreId{1}, id, 10), AssertionError);
  EXPECT_THROW(tracker.on_presented(CoreId{0}, other, 10), AssertionError);
  // Out-of-range and sentinel cores are rejected, not indexed.
  EXPECT_THROW(tracker.on_presented(CoreId{2}, id, 10), AssertionError);
  EXPECT_THROW(tracker.on_presented(kNoCore, id, 10), AssertionError);
  // The failed calls left both records untouched.
  EXPECT_EQ(tracker.inflight(CoreId{0}).presentations, 0);
  EXPECT_EQ(tracker.inflight(CoreId{1}).presentations, 0);
}

TEST(RequestTracker, CompletingWithTheWrongCoreAsserts) {
  RequestTracker tracker(2);
  const auto id = tracker.begin(CoreId{0}, 0x1, AccessType::kRead, 0);
  tracker.on_presented(CoreId{0}, id, 10);
  EXPECT_THROW(tracker.on_completed(CoreId{1}, id, 20), AssertionError);
  const auto other = tracker.begin(CoreId{1}, 0x2, AccessType::kRead, 0);
  tracker.on_presented(CoreId{1}, other, 15);
  EXPECT_THROW(tracker.on_completed(CoreId{1}, id, 20), AssertionError);
  EXPECT_EQ(tracker.completed_requests(), 0);
  EXPECT_TRUE(tracker.has_inflight(CoreId{0}));
  EXPECT_TRUE(tracker.has_inflight(CoreId{1}));
}

TEST(RequestTracker, CompletingAStaleIdAsserts) {
  RequestTracker tracker(1);
  const auto first = tracker.begin(CoreId{0}, 0x1, AccessType::kRead, 0);
  tracker.on_presented(CoreId{0}, first, 10);
  tracker.on_completed(CoreId{0}, first, 20);
  // Completed: the id no longer names anything in flight.
  EXPECT_THROW(tracker.on_completed(CoreId{0}, first, 30), AssertionError);
  // The core's next request does not answer to the old id either.
  const auto second = tracker.begin(CoreId{0}, 0x2, AccessType::kRead, 40);
  ASSERT_NE(second, first);
  tracker.on_presented(CoreId{0}, second, 50);
  EXPECT_THROW(tracker.on_presented(CoreId{0}, first, 60), AssertionError);
  EXPECT_THROW(tracker.on_completed(CoreId{0}, first, 60), AssertionError);
  EXPECT_EQ(tracker.completed_requests(), 1);
  tracker.on_completed(CoreId{0}, second, 70);
  EXPECT_EQ(tracker.completed_requests(), 2);
  EXPECT_EQ(tracker.service_latency(CoreId{0}).max(), 20);
}

TEST(RequestTracker, WritebackWithoutInflightIsIgnored) {
  RequestTracker tracker(1);
  EXPECT_NO_THROW(tracker.on_writeback_sent(CoreId{0}));
}

TEST(RequestTracker, RecordsRequireOptIn) {
  RequestTracker tracker(1, /*keep_records=*/false);
  EXPECT_THROW((void)tracker.records(), AssertionError);
  EXPECT_THROW((void)tracker.worst_request(), AssertionError);
}

TEST(RequestTracker, WorstTracksMaximum) {
  RequestTracker tracker(2);
  for (int i = 1; i <= 3; ++i) {
    const auto id = tracker.begin(CoreId{0}, 0x1, AccessType::kRead, 0);
    tracker.on_presented(CoreId{0}, id, 0);
    tracker.on_completed(CoreId{0}, id, i * 100);
  }
  EXPECT_EQ(tracker.worst_request().service_latency(), 300);
  EXPECT_EQ(tracker.service_latency(CoreId{0}).count(), 3);
  EXPECT_EQ(tracker.service_latency(CoreId{0}).min(), 100);
}

}  // namespace
}  // namespace psllc::core
