// Child-process and socket helpers for the serving workloads: spawn the
// `s35` servers in their own process groups, read their peak RSS, talk
// NDJSON over a Unix socket, and tear everything down.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace pb {

// One spawned server. Its process group holds it and every worker it forks,
// so teardown can signal and reap them together.
struct Child {
  pid_t pid = -1;
  std::string log;  // stdout+stderr of the child
};

// Starts argv[0] with argv in a new process group, stdin from /dev/null,
// stdout and stderr appended to `log`. pid -1 on failure.
Child spawn(const std::vector<std::string>& argv, const std::string& log);

// Waits up to timeout_ms for the process to exit (reaped). True when it did.
bool wait_exit(pid_t pid, int timeout_ms);

// SIGKILLs the whole group and reaps the leader; used on error paths and
// after a graceful shutdown timed out.
void kill_group(pid_t pid);

// True while any process of the group still exists.
bool group_alive(pid_t pid);

// pid plus every descendant (via /proc/<pid>/task/*/children).
std::vector<pid_t> process_tree(pid_t pid);

// VmHWM of one process in bytes (0 when unreadable).
double vm_hwm_bytes(pid_t pid);

// Blocking NDJSON connection to a Unix socket.
class LineConn {
 public:
  LineConn() = default;
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  bool connect_unix(const std::string& path);
  bool send_line(const std::string& line);
  // One response line without its newline; false on EOF, error or timeout.
  bool read_line(std::string* out, int timeout_ms);
  void close();

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace pb
