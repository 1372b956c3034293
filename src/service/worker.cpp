#include "service/worker.h"

#include <poll.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <thread>

#include "service/json.h"
#include "service/wake.h"
#include "service/wire.h"

namespace s35::service {

namespace {

// Per-job injected process faults, parsed from the submit frame. Pass
// indices are 0-based boundary counts: pass p fires after the (p+1)-th
// blocked pass completes (and after its checkpoint is saved).
struct JobFaults {
  std::int64_t kill_pass = -1;
  std::int64_t stall_pass = -1;
  int stall_ms = 0;
  std::int64_t sdc_pass = -1;
};

JobFaults faults_from_json(const std::string& s) {
  JobFaults f;
  std::int64_t v = 0;
  if (json::get_int(s, "fk", &v)) f.kill_pass = v;
  if (json::get_int(s, "fs", &v)) f.stall_pass = v;
  if (json::get_int(s, "fsm", &v)) f.stall_ms = static_cast<int>(v);
  if (json::get_int(s, "fe", &v)) f.sdc_pass = v;
  return f;
}

}  // namespace

int worker_main(int fd, const WorkerOptions& opts) {
  // The supervisor owns job lifecycles; a worker that loses its pipe has no
  // one to report to and exits. SIGTERM/SIGINT stay default so the
  // supervisor (or an operator) can still stop a wedged worker.
  std::signal(SIGPIPE, SIG_IGN);

  std::mutex write_mu;  // heartbeat thread and main loop share the fd
  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::uint64_t> beat_job{0};
  std::atomic<bool> stop_beats{false};

  // Shared by the pass hook across jobs; reset per submit. The hook runs on
  // the service's worker thread, the protocol loop on this thread.
  std::atomic<std::int64_t> pass_index{0};
  std::mutex faults_mu;
  JobFaults faults;

  ServiceOptions sopts = opts.service;
  sopts.pass_hook = [&](const JobSpec&, int) -> fault::Status {
    const std::int64_t pass = pass_index.fetch_add(1, std::memory_order_relaxed);
    JobFaults f;
    {
      std::lock_guard<std::mutex> lock(faults_mu);
      f = faults;
    }
    if (pass == f.kill_pass) {
      // Abrupt death: no flushing, no unwinding — exactly what a crash or
      // OOM kill looks like from the supervisor's side. The pass-`pass`
      // checkpoint is already durable (hook runs after the save).
      ::raise(SIGKILL);
    }
    if (pass == f.stall_pass && f.stall_ms > 0) {
      // Hard hang: progress freezes while the heartbeat thread keeps
      // sending frames — only progress-staleness detection catches this.
      std::this_thread::sleep_for(std::chrono::milliseconds(f.stall_ms));
    }
    progress.fetch_add(1, std::memory_order_relaxed);
    if (pass == f.sdc_pass)
      return {fault::ErrorCode::kSdcDetected,
              "injected unrecoverable SDC (re-execution budget exhausted)"};
    return {};
  };

  JobService svc(sopts);

  std::thread beater([&] {
    std::string payload;
    while (!stop_beats.load(std::memory_order_acquire)) {
      payload = "{\"job\":" + std::to_string(beat_job.load(std::memory_order_relaxed)) +
                ",\"progress\":" +
                std::to_string(progress.load(std::memory_order_relaxed)) + "}";
      {
        std::lock_guard<std::mutex> lock(write_mu);
        if (!wire::write_frame(fd, wire::FrameType::kBeat, payload)) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(opts.beat_ms));
    }
  });

  // One job at a time: the supervisor never submits a second job before the
  // first one's result frame, so a single (outer id -> inner id) pair is
  // the whole dispatch state.
  std::uint64_t outer = 0, inner = 0;
  std::string acc;
  int rc = 0;
  bool draining = false;
  // Event-driven: sleep until the supervisor writes or the job ends. The
  // service's terminal fd is readable once the job is terminal, so its
  // result ships the moment it lands; beats run on their own thread.
  pollfd pfds[2] = {{fd, POLLIN, 0}, {svc.terminal_fd(), POLLIN, 0}};
  for (bool running = true; running;) {
    if (::poll(pfds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      rc = 1;
      break;
    }
    if ((pfds[1].revents & POLLIN) != 0) WakeFd::drain(pfds[1].fd);

    // Every frame the supervisor has written so far.
    int got = 0;
    wire::Frame frame;
    while ((pfds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
           (got = wire::read_frame(fd, &acc, &frame, 0)) == 1) {
      switch (frame.type) {
        case wire::FrameType::kSubmit: {
          JobSpec spec;
          std::uint64_t job = 0;
          if (!wire::spec_from_json(frame.payload, &job, &spec) || outer != 0) {
            std::lock_guard<std::mutex> lock(write_mu);
            JobResult r;
            r.error = fault::ErrorCode::kMismatch;
            r.message = outer != 0 ? "worker busy" : "malformed submit frame";
            wire::write_frame(fd, wire::FrameType::kResult,
                              wire::result_to_json(job, JobState::kFailed, r));
            break;
          }
          pass_index.store(0, std::memory_order_relaxed);
          {
            std::lock_guard<std::mutex> lock(faults_mu);
            faults = faults_from_json(frame.payload);
          }
          beat_job.store(job, std::memory_order_relaxed);
          const auto id = svc.submit(spec);
          if (!id.ok()) {
            std::lock_guard<std::mutex> lock(write_mu);
            JobResult r;
            r.error = id.status().code();
            r.message = id.status().message();
            wire::write_frame(fd, wire::FrameType::kResult,
                              wire::result_to_json(job, JobState::kFailed, r));
            beat_job.store(0, std::memory_order_relaxed);
            break;
          }
          outer = job;
          inner = id.value();
          break;
        }
        case wire::FrameType::kCancel: {
          std::int64_t job = 0;
          if (json::get_int(frame.payload, "job", &job) && outer != 0 &&
              static_cast<std::uint64_t>(job) == outer)
            svc.cancel(inner);
          break;
        }
        case wire::FrameType::kDrain:
          draining = true;
          break;
        default:
          break;  // beats/results never flow supervisor -> worker
      }
    }
    if (got < 0) {
      rc = draining ? 0 : 1;  // orphaned: supervisor died or closed on us
      break;
    }

    // Completed job? Ship the terminal result exactly once.
    if (outer != 0) {
      const auto info = svc.info(inner);
      if (info && info->state != JobState::kQueued &&
          info->state != JobState::kRunning) {
        std::lock_guard<std::mutex> lock(write_mu);
        if (!wire::write_frame(
                fd, wire::FrameType::kResult,
                wire::result_to_json(outer, info->state, info->result))) {
          rc = 1;
          break;
        }
        outer = inner = 0;
        beat_job.store(0, std::memory_order_relaxed);
      }
    }

    if (draining && outer == 0) {
      svc.drain(-1);
      std::lock_guard<std::mutex> lock(write_mu);
      wire::write_frame(fd, wire::FrameType::kDrained, "{}");
      running = false;
    }
  }

  stop_beats.store(true, std::memory_order_release);
  if (beater.joinable()) beater.join();
  svc.shutdown();  // persists this shard's view of the plan cache
  return rc;
}

}  // namespace s35::service
