// WakeFd: a nonblocking self-pipe that turns "something changed" into a
// readable descriptor a poll(2) loop can wait on next to its sockets.
//
//   signal()  any thread, never blocks: makes fd() readable;
//   drain()   the consumer, before it rescans the state it watches: makes
//             fd() unreadable again until the next signal().
//
// Signals coalesce; a consumer that drains first and rescans second never
// misses a change made before a signal(). One consumer per WakeFd: a drain
// swallows the readiness every other poller would have seen.
//
// The PeerPlane monitor wakes on one for new work; every JobLedger signals
// one at each terminal transition (JobBackend::terminal_fd()). POSIX only.
#pragma once

namespace s35::service {

class WakeFd {
 public:
  // Aborts when no pipe can be made: a loop that polls a missing
  // descriptor would sleep through every event instead of failing.
  WakeFd();
  ~WakeFd();

  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  int fd() const { return fds_[0]; }
  void signal() const;
  void drain() const { drain(fd()); }
  // For consumers that hold only the descriptor (JobBackend::terminal_fd()).
  static void drain(int fd);
  // In a freshly forked child: closes both ends, so the child holds no
  // descriptor of the parent's loops.
  void close_in_child() const;

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace s35::service
