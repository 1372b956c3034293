// Length-prefixed frame protocol between the supervisor and its worker
// processes (one socketpair per worker), reused verbatim by the cluster
// plane between the shard router and its TCP nodes (cluster/).
//
// Frame layout, little-endian, host-order (same-machine pipe and
// loopback/LAN peers of identical endianness; never a portable format):
//
//   u32 magic   "S35W"          — resync guard; a torn stream is detected,
//   u32 type    FrameType          not silently mis-parsed
//   u32 length  payload bytes, bounded by json::kMaxRequestBytes
//   ...payload  flat JSON (same dialect as the NDJSON protocol)
//
// Reads are poll-based with a timeout and tolerate partial delivery and
// EINTR; writes are atomic under a caller-held lock and never raise
// SIGPIPE (a dead peer surfaces as an error return, which is exactly the
// signal the supervisor's death detection wants).
//
// Payload schemas (all flat JSON). Spec, result, plan-key and plan fields
// are the plane-scope rows of the field tables in service/codec.h:
//   kSubmit   {"job":N, <kSpecFields>, ["fk":p]["fs":p,"fsm":ms]["fe":p]}
//             fk/fs/fe are injected process-fault passes (kill/stall/SDC),
//             present only for the targeted worker's first incarnation.
//   kCancel   {"job":N}
//   kResult   {"job":N,"state":S, <kResultFields>}  worker -> supervisor,
//             terminal
//   kBeat     {"job":N,"progress":P}         worker -> supervisor, periodic
//             (nodes add "plan_hits"/"plan_misses" cache counters)
//   kDrain    {}                             supervisor -> worker: finish
//                                            current work, then reply
//   kDrained  {}                             worker -> supervisor, then exit
//   kHello    {"node":"host:port","jobs":W}  node -> router on connect:
//             identity + dispatch window (cluster plane only)
//   kReject   {"error":"unavailable","message":...}  node -> router: typed
//             refusal (node draining/stopping) instead of an abrupt EOF
//   kPlanPush {"ver":V, <kPlanKeyFields>, <kPlanFields>}  router -> node
//             replication (authoritative cache write-through) and node ->
//             router with ver 0 when a node tuned a plan locally;
//             "miss":true answers a pull that found nothing
//   kPlanPull {<kPlanKeyFields>}              node -> router on cache miss
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/job.h"
#include "service/plan_cache.h"

namespace s35::service::wire {

inline constexpr std::uint32_t kMagic = 0x57353353u;  // "S35W" little-endian

enum class FrameType : std::uint32_t {
  kSubmit = 1,
  kCancel = 2,
  kResult = 3,
  kBeat = 4,
  kDrain = 5,
  kDrained = 6,
  // Cluster plane (router <-> node); see cluster/node.h, cluster/router.h.
  kHello = 7,
  kReject = 8,
  kPlanPush = 9,
  kPlanPull = 10,
};

struct Frame {
  FrameType type = FrameType::kBeat;
  std::string payload;
};

// Writes one frame. False on a dead/broken peer (never raises SIGPIPE).
bool write_frame(int fd, FrameType type, const std::string& payload);

// Reads one frame, waiting up to timeout_ms (-1 = forever, 0 = nonblock).
//  1 = frame read, 0 = timeout, -1 = EOF/protocol violation/error.
// `acc` carries partial bytes between calls (one accumulator per fd).
int read_frame(int fd, std::string* acc, Frame* out, int timeout_ms);

// Drains every complete frame already buffered in the kernel/`acc` without
// blocking; appends to *out_payloads via the callback-free vector form.
// Used when reaping a dead worker: a result written before death must be
// delivered, not lost. Returns the number of frames recovered.
int drain_frames(int fd, std::string* acc, std::vector<Frame>* out);

// ---- spec/result (de)serialization over the trusted wire ----------------
// Unlike the client-facing NDJSON parser, these carry the full JobSpec —
// including checkpoint_path/resume, which untrusted clients must never
// control. The *_from_json decoders are false when a required field is
// missing or any field is malformed or out of its member's range.

std::string spec_to_json(std::uint64_t job, const JobSpec& spec);
bool spec_from_json(const std::string& s, std::uint64_t* job, JobSpec* spec);

std::string result_to_json(std::uint64_t job, JobState state, const JobResult& r);
bool result_from_json(const std::string& s, std::uint64_t* job, JobState* state,
                      JobResult* r);

// ---- plan replication codecs (cluster plane) ---------------------------
// A PlanKey + CachedPlan flattened into one object, tagged with the
// router's replication version (`ver`; 0 = node-learned, not yet stamped).
// plan_key_to_json emits only the key fields — the kPlanPull payload.

std::string plan_key_to_json(const PlanKey& key);
bool plan_key_from_json(const std::string& s, PlanKey* key);

std::string plan_entry_to_json(const PlanKey& key, const CachedPlan& plan,
                               std::uint64_t ver);
bool plan_entry_from_json(const std::string& s, PlanKey* key, CachedPlan* plan,
                          std::uint64_t* ver);

}  // namespace s35::service::wire
