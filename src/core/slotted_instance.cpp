#include "core/slotted_instance.hpp"

#include <algorithm>
#include <cstdint>

#include "core/assert.hpp"

namespace abt::core {

SlottedInstance::SlottedInstance(std::vector<SlottedJob> jobs, int capacity)
    : jobs_(std::move(jobs)), capacity_(capacity) {
  ABT_ASSERT(capacity_ >= 1, "machine capacity g must be at least 1");
  for (const SlottedJob& j : jobs_) {
    horizon_ = std::max(horizon_, j.deadline);
    // Summed modulo 2^64, never with signed overflow: structurally_valid
    // rejects every instance whose total work does not fit.
    total_work_ =
        static_cast<SlotTime>(static_cast<std::uint64_t>(total_work_) +
                              static_cast<std::uint64_t>(j.length));
  }
}

SlotTime SlottedInstance::mass_lower_bound() const {
  return (total_work_ + capacity_ - 1) / capacity_;
}

bool SlottedInstance::structurally_valid(std::string* why) const {
  SlotTime work = 0;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const SlottedJob& j = jobs_[i];
    auto fail = [&](const char* reason) {
      if (why != nullptr) {
        *why = "job " + std::to_string(i) + ": " + reason;
      }
      return false;
    };
    if (j.release < 0) return fail("negative release time");
    if (j.length < 1) return fail("length must be >= 1");
    // deadline >= release first, so the window size cannot overflow.
    if (j.deadline < j.release || !j.window_fits()) {
      return fail("window shorter than length");
    }
    if (__builtin_add_overflow(work, j.length, &work)) {
      return fail("total work overflows");
    }
  }
  return true;
}

std::vector<JobId> SlottedInstance::live_jobs(SlotTime t) const {
  std::vector<JobId> out;
  for (JobId j = 0; j < size(); ++j) {
    if (job(j).live_in_slot(t)) out.push_back(j);
  }
  return out;
}

}  // namespace abt::core
