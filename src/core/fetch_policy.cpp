#include "core/fetch_policy.h"

namespace mflush {

void icount_order(const CoreView& view,
                  std::array<ThreadId, kMaxContexts>& order) {
  // Insertion sort over at most kMaxContexts ids: inserting ids in
  // ascending order and shifting only past strictly larger counts breaks
  // ties by id, and nothing is allocated on the per-cycle path.
  for (std::uint32_t i = 0; i < view.num_threads; ++i) {
    const std::uint32_t count = view.icount[i];
    std::uint32_t j = i;
    for (; j > 0 && view.icount[order[j - 1]] > count; --j)
      order[j] = order[j - 1];
    order[j] = static_cast<ThreadId>(i);
  }
}

}  // namespace mflush
