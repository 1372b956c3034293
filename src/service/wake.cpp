#include "service/wake.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

namespace s35::service {

WakeFd::WakeFd() {
  if (::pipe(fds_) != 0) {
    std::perror("s35: wake pipe");
    std::abort();
  }
  // Both ends nonblocking: drain() reads until EAGAIN, and a full pipe must
  // never stall a signaller (the bytes already in it keep fd() readable).
  for (const int fd : fds_) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

WakeFd::~WakeFd() {
  for (const int fd : fds_) ::close(fd);
}

void WakeFd::signal() const {
  const char b = 1;
  [[maybe_unused]] const ssize_t n = ::write(fds_[1], &b, 1);
}

void WakeFd::drain(int fd) {
  char buf[64];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
}

void WakeFd::close_in_child() const {
  for (const int fd : fds_) ::close(fd);
}

}  // namespace s35::service
