#include "service/wire.h"

#include <cstring>

#include "service/codec.h"
#include "service/json.h"

#ifdef __unix__
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <cerrno>
#endif

namespace s35::service::wire {

#ifdef __unix__

namespace {

struct FrameHeader {
  std::uint32_t magic;
  std::uint32_t type;
  std::uint32_t length;
};
static_assert(sizeof(FrameHeader) == 12);

// Writes the whole buffer; MSG_NOSIGNAL keeps a dead peer from raising
// SIGPIPE against the supervisor.
bool write_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool valid_type(std::uint32_t t) {
  return t >= static_cast<std::uint32_t>(FrameType::kSubmit) &&
         t <= static_cast<std::uint32_t>(FrameType::kPlanPull);
}

// Tries to peel one complete frame off the front of `acc`.
//  1 = frame produced, 0 = need more bytes, -1 = protocol violation.
int parse_acc(std::string* acc, Frame* out) {
  if (acc->size() < sizeof(FrameHeader)) return 0;
  FrameHeader h{};
  std::memcpy(&h, acc->data(), sizeof(h));
  if (h.magic != kMagic || !valid_type(h.type) ||
      h.length > json::kMaxRequestBytes)
    return -1;
  if (acc->size() < sizeof(h) + h.length) return 0;
  out->type = static_cast<FrameType>(h.type);
  out->payload.assign(acc->data() + sizeof(h), h.length);
  acc->erase(0, sizeof(h) + h.length);
  return 1;
}

}  // namespace

bool write_frame(int fd, FrameType type, const std::string& payload) {
  if (payload.size() > json::kMaxRequestBytes) return false;
  FrameHeader h{kMagic, static_cast<std::uint32_t>(type),
                static_cast<std::uint32_t>(payload.size())};
  std::string buf(sizeof(h) + payload.size(), '\0');
  std::memcpy(buf.data(), &h, sizeof(h));
  std::memcpy(buf.data() + sizeof(h), payload.data(), payload.size());
  return write_all(fd, buf.data(), buf.size());
}

int read_frame(int fd, std::string* acc, Frame* out, int timeout_ms) {
  for (;;) {
    const int got = parse_acc(acc, out);
    if (got != 0) return got;

    pollfd p{fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, timeout_ms);
    if (pr == 0) return 0;
    if (pr < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return -1;
    }
    if (n == 0) return -1;  // EOF
    acc->append(buf, static_cast<std::size_t>(n));
    // Loop: multiple frames may have arrived, or the frame may still be
    // incomplete — poll again with the same timeout (close enough; this is
    // a liveness timeout, not an accounting one).
  }
}

int drain_frames(int fd, std::string* acc, std::vector<Frame>* out) {
  // Pull whatever the kernel still buffers (nonblocking), then peel frames.
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 0) <= 0 || (p.revents & (POLLIN | POLLHUP)) == 0) break;
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    acc->append(buf, static_cast<std::size_t>(n));
  }
  int count = 0;
  Frame f;
  while (parse_acc(acc, &f) == 1) {
    out->push_back(f);
    ++count;
  }
  return count;
}

#else  // !__unix__

bool write_frame(int, FrameType, const std::string&) { return false; }
int read_frame(int, std::string*, Frame*, int) { return -1; }
int drain_frames(int, std::string*, std::vector<Frame>*) { return 0; }

#endif

// ---- spec/result and plan JSON (field tables in codec.h) ---------------

using codec::Scope;

std::string spec_to_json(std::uint64_t job, const JobSpec& spec) {
  std::string s = "{\"job\":" + std::to_string(job);
  codec::encode(&s, Scope::kPlane, spec, codec::kSpecFields);
  s += '}';
  return s;
}

bool spec_from_json(const std::string& s, std::uint64_t* job, JobSpec* spec) {
  std::size_t at = 0;
  return json::get_uint(s, "job", job) && *job > 0 &&
         json::find_value(s, "kernel", &at) &&
         codec::decode(s, Scope::kPlane, spec, codec::kSpecFields);
}

std::string result_to_json(std::uint64_t job, JobState state, const JobResult& r) {
  std::string s =
      "{\"job\":" + std::to_string(job) + ",\"state\":\"" + to_string(state) + "\"";
  codec::encode(&s, Scope::kPlane, r, codec::kResultFields);
  s += '}';
  return s;
}

bool result_from_json(const std::string& s, std::uint64_t* job, JobState* state,
                      JobResult* r) {
  std::string st;
  if (!json::get_uint(s, "job", job) || *job == 0 || !json::get_string(s, "state", &st))
    return false;
  for (const JobState terminal :
       {JobState::kDone, JobState::kFailed, JobState::kCancelled, JobState::kExpired}) {
    if (st != to_string(terminal)) continue;
    *state = terminal;
    return codec::decode(s, Scope::kPlane, r, codec::kResultFields);
  }
  return false;
}

std::string plan_key_to_json(const PlanKey& key) {
  std::string s = "{";
  codec::encode(&s, Scope::kPlane, key, codec::kPlanKeyFields, false);
  s += '}';
  return s;
}

bool plan_key_from_json(const std::string& s, PlanKey* key) {
  std::size_t at = 0;
  return json::find_value(s, "kernel", &at) &&
         codec::decode(s, Scope::kPlane, key, codec::kPlanKeyFields) && key->nx > 0;
}

std::string plan_entry_to_json(const PlanKey& key, const CachedPlan& plan,
                               std::uint64_t ver) {
  std::string s = "{\"ver\":" + std::to_string(ver);
  codec::encode(&s, Scope::kPlane, key, codec::kPlanKeyFields);
  codec::encode(&s, Scope::kPlane, plan, codec::kPlanFields);
  s += '}';
  return s;
}

bool plan_entry_from_json(const std::string& s, PlanKey* key, CachedPlan* plan,
                          std::uint64_t* ver) {
  if (!plan_key_from_json(s, key) ||
      !codec::decode(s, Scope::kPlane, plan, codec::kPlanFields) || plan->dim_x <= 0)
    return false;
  if (ver == nullptr) return true;
  *ver = 0;
  std::size_t at = 0;
  return json::get_uint(s, "ver", ver) || !json::find_value(s, "ver", &at);
}

}  // namespace s35::service::wire
