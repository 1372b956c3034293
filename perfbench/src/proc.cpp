#include "proc.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

extern char** environ;

namespace pb {

Child spawn(const std::vector<std::string>& argv, const std::string& log) {
  Child c;
  c.log = log;
  posix_spawn_file_actions_t fa;
  posix_spawnattr_t attr;
  posix_spawn_file_actions_init(&fa);
  posix_spawnattr_init(&attr);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 1, log.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                                   0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  if (posix_spawn(&pid, args[0], &fa, &attr, args.data(), environ) == 0) c.pid = pid;
  posix_spawn_file_actions_destroy(&fa);
  posix_spawnattr_destroy(&attr);
  return c;
}

bool wait_exit(pid_t pid, int timeout_ms) {
  if (pid <= 0) return true;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

bool group_alive(pid_t pid) { return pid > 0 && ::kill(-pid, 0) == 0; }

void kill_group(pid_t pid) {
  if (pid <= 0) return;
  ::kill(-pid, SIGKILL);
  wait_exit(pid, 5000);
  // Orphaned workers are reparented away from us; wait until the group is
  // empty so no process outlives the run.
  for (int i = 0; i < 500 && group_alive(pid); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
}

std::vector<pid_t> process_tree(pid_t pid) {
  std::vector<pid_t> out{pid};
  for (std::size_t at = 0; at < out.size(); ++at) {
    const std::string dir = "/proc/" + std::to_string(out[at]) + "/task";
    DIR* d = ::opendir(dir.c_str());
    if (!d) continue;
    while (dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      std::ifstream f(dir + "/" + e->d_name + "/children");
      long child = 0;
      while (f >> child) out.push_back(static_cast<pid_t>(child));
    }
    ::closedir(d);
  }
  return out;
}

double vm_hwm_bytes(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) * 1024.0;
  return 0.0;
}

LineConn::~LineConn() { close(); }

void LineConn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool LineConn::connect_unix(const std::string& path) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    close();
    return false;
  }
  return true;
}

bool LineConn::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  const std::string msg = line + "\n";
  std::size_t off = 0;
  while (off < msg.size()) {
    const ssize_t w = ::send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

bool LineConn::read_line(std::string* out, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      *out = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    if (fd_ < 0) return false;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return false;
    pollfd p{fd_, POLLIN, 0};
    const int pr = ::poll(&p, 1, static_cast<int>(left));
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) return false;
    char tmp[4096];
    const ssize_t n = ::read(fd_, tmp, sizeof(tmp));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<std::size_t>(n));
  }
}

}  // namespace pb
