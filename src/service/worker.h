// Worker-process side of the supervised serving plane.
//
// `worker_main` is what a forked child runs: it builds a private JobService
// (own thread team, own PlanCache shard over the shared on-disk cache) and
// serves one job at a time from the supervisor over the wire protocol
// (wire.h). The protocol loop sleeps in poll on the supervisor socket and
// the service's terminal fd, so a result frame leaves the moment its job
// ends. A heartbeat thread reports liveness as *progress*, not mere
// frame arrival: the beat payload carries a counter the pass hook bumps at
// every blocked-pass boundary, so a worker that is alive but frozen
// mid-job is indistinguishable from a dead one at the supervisor — which
// is the point.
//
// Injected process faults (FaultPlan's kill/stall/SDC knobs) arrive as
// per-job fields in the submit frame and are evaluated in the pass hook,
// after that pass's failover checkpoint is durably on disk.
#pragma once

#include "service/service.h"

namespace s35::service {

struct WorkerOptions {
  int index = 0;     // worker id, for logs and fault targeting
  int beat_ms = 50;  // heartbeat period
  ServiceOptions service;
};

// Runs the worker protocol loop on `fd` (the worker end of the
// supervisor's socketpair) until the supervisor closes it or sends kDrain.
// Returns the process exit code; the forked child passes it to _exit().
int worker_main(int fd, const WorkerOptions& opts);

}  // namespace s35::service
