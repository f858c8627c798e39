// One process-wide background thread for deferred cleanup: jobs that only
// release resources (large destructors) and that the caller need not wait
// for. A preempted synthesis run hands its bucket enumerators here so it can
// return within its deadline instead of spending it in Z3 teardown.
//
// Jobs run one at a time in submission order. A job queued before exit still
// runs: the thread drains the queue and is joined during static destruction.
#pragma once

#include <functional>

namespace abg::util {

void run_in_background(std::function<void()> job);

}  // namespace abg::util
