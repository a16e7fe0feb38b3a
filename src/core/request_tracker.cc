#include "core/request_tracker.h"

#include <algorithm>

#include "common/assert.h"

namespace psllc::core {

RequestTracker::RequestTracker(int num_cores, bool keep_records)
    : keep_records_(keep_records),
      inflight_(static_cast<std::size_t>(num_cores)),
      service_(static_cast<std::size_t>(num_cores)),
      total_(static_cast<std::size_t>(num_cores)) {
  PSLLC_ASSERT(num_cores > 0, "tracker needs >=1 core");
}

std::uint64_t RequestTracker::begin(CoreId core, LineAddr line,
                                    AccessType access, Cycle issued) {
  PSLLC_ASSERT(core.valid() &&
                   core.value < static_cast<int>(inflight_.size()),
               "bad core " << core.value);
  auto& slot = inflight_[static_cast<std::size_t>(core.value)];
  PSLLC_ASSERT(!slot.has_value(),
               to_string(core) << " already has an in-flight request "
                                  "(one outstanding request per core)");
  RequestRecord record;
  record.id = next_id_++;
  record.core = core;
  record.line = line;
  record.access = access;
  record.issued = issued;
  slot = record;
  return record.id;
}

RequestRecord& RequestTracker::inflight_mut(CoreId core, std::uint64_t id) {
  PSLLC_ASSERT(core.valid() &&
                   core.value < static_cast<int>(inflight_.size()),
               "bad core " << core.value);
  auto& slot = inflight_[static_cast<std::size_t>(core.value)];
  PSLLC_ASSERT(slot.has_value() && slot->id == id,
               "request id " << id << " is not " << to_string(core)
                             << "'s in-flight request");
  return *slot;
}

void RequestTracker::on_presented(CoreId core, std::uint64_t id,
                                  Cycle slot_start) {
  RequestRecord& record = inflight_mut(core, id);
  if (record.first_presented == kNoCycle) {
    record.first_presented = slot_start;
  }
  ++record.presentations;
}

void RequestTracker::on_completed(CoreId core, std::uint64_t id,
                                  Cycle completion) {
  RequestRecord& record = inflight_mut(core, id);
  PSLLC_ASSERT(record.first_presented != kNoCycle,
               "request completed without ever being presented");
  record.completed = completion;
  const auto c = static_cast<std::size_t>(core.value);
  service_[c].add(record.service_latency());
  total_[c].add(record.total_latency());
  ++completed_count_;
  if (!worst_ || record.service_latency() > worst_->service_latency()) {
    worst_ = record;
  }
  if (keep_records_) {
    records_.push_back(record);
  }
  inflight_[c].reset();
}

void RequestTracker::on_writeback_sent(CoreId core) {
  auto& slot = inflight_[static_cast<std::size_t>(core.value)];
  if (slot) {
    ++slot->writebacks_during;
  }
}

bool RequestTracker::has_inflight(CoreId core) const {
  return inflight_[static_cast<std::size_t>(core.value)].has_value();
}

const RequestRecord& RequestTracker::inflight(CoreId core) const {
  const auto& slot = inflight_[static_cast<std::size_t>(core.value)];
  PSLLC_ASSERT(slot.has_value(), "no in-flight request for "
                                     << to_string(core));
  return *slot;
}

const Summary& RequestTracker::service_latency(CoreId core) const {
  return service_[static_cast<std::size_t>(core.value)];
}

const Summary& RequestTracker::total_latency(CoreId core) const {
  return total_[static_cast<std::size_t>(core.value)];
}

Cycle RequestTracker::max_service_latency() const {
  Cycle max = kNoCycle;
  for (const auto& summary : service_) {
    if (summary.count() > 0) {
      max = max == kNoCycle ? summary.max() : std::max(max, summary.max());
    }
  }
  return max;
}

const RequestRecord& RequestTracker::worst_request() const {
  PSLLC_ASSERT(worst_.has_value(), "no completed requests yet");
  return *worst_;
}

const std::vector<RequestRecord>& RequestTracker::records() const {
  PSLLC_ASSERT(keep_records_, "tracker built without keep_records");
  return records_;
}

void RequestTracker::absorb_solo(const RequestTracker& other) {
  PSLLC_ASSERT(inflight_.size() == other.inflight_.size(),
               "absorb_solo across different core counts");
  completed_count_ += other.completed_count_;
  for (std::size_t c = 0; c < inflight_.size(); ++c) {
    if (other.inflight_[c]) {
      PSLLC_ASSERT(!inflight_[c],
                   "absorb_solo: core " << c << " already has an in-flight "
                                           "request in the composed state");
      inflight_[c] = other.inflight_[c];
    }
    service_[c].merge(other.service_[c]);
    total_[c].merge(other.total_[c]);
  }
  if (other.worst_ &&
      (!worst_ || other.worst_->service_latency() > worst_->service_latency())) {
    worst_ = other.worst_;
  }
  if (keep_records_) {
    records_.insert(records_.end(), other.records_.begin(),
                    other.records_.end());
  }
}

}  // namespace psllc::core
