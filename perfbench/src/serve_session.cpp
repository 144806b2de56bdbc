#include "serve_session.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <streambuf>

#include <unistd.h>

namespace perfbench {

namespace {

[[noreturn]] void fail_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

/// Read side of a pipe as a streambuf for api::serve's std::istream.
class FdReadBuf : public std::streambuf {
 public:
  explicit FdReadBuf(int fd) : fd_(fd) {}

 protected:
  int_type underflow() override {
    for (;;) {
      const ssize_t n = ::read(fd_, buf_, sizeof(buf_));
      if (n > 0) {
        setg(buf_, buf_, buf_ + n);
        return traits_type::to_int_type(buf_[0]);
      }
      if (n == 0 || errno != EINTR) return traits_type::eof();
    }
  }

 private:
  int fd_;
  char buf_[1 << 16];
};

/// Write side of a pipe as a streambuf; every flush reaches the fd.
class FdWriteBuf : public std::streambuf {
 public:
  explicit FdWriteBuf(int fd) : fd_(fd) { setp(buf_, buf_ + sizeof(buf_)); }

 protected:
  int_type overflow(int_type ch) override {
    if (drain() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override { return drain(); }

 private:
  int drain() {
    const char* p = pbase();
    while (p < pptr()) {
      const ssize_t n = ::write(fd_, p, static_cast<std::size_t>(pptr() - p));
      if (n < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
      p += n;
    }
    setp(buf_, buf_ + sizeof(buf_));
    return 0;
  }

  int fd_;
  char buf_[1 << 16];
};

}  // namespace

ServeSession::ServeSession(
    const std::vector<std::pair<std::string, seance::driver::JobResult>>& warm,
    const seance::api::ServeConfig& config)
    : cache_(seance::api::CacheConfig{}) {
  for (const auto& [key, row] : warm) cache_.warm_insert(key, row);
  cache_.warm_seal();
  if (::pipe(to_server_) != 0) fail_errno("pipe");
  if (::pipe(from_server_) != 0) {
    close_fd(to_server_[0]);
    close_fd(to_server_[1]);
    fail_errno("pipe");
  }
  server_ = std::thread([this, config] {
    try {
      FdReadBuf in_buf(to_server_[0]);
      FdWriteBuf out_buf(from_server_[1]);
      std::istream in(&in_buf);
      std::ostream out(&out_buf);
      (void)seance::api::serve(in, out, config, &cache_);
      out.flush();
    } catch (...) {
      server_error_ = std::current_exception();
    }
    // EOF for the client, so a server that stopped early cannot leave it
    // blocked in read_line.
    close_fd(from_server_[1]);
  });
  try {
    // The PONG also means serve() has allocated its transposition table.
    write_all("PING\n");
    if (read_line() != "PONG") throw std::runtime_error("serve: no PONG");
  } catch (...) {
    try {
      finish();
    } catch (...) {
      // The PING failure below is the error worth reporting.
    }
    throw;
  }
}

ServeSession::~ServeSession() {
  try {
    finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve session: %s\n", e.what());
  }
}

void ServeSession::write_all(const std::string& bytes) {
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(to_server_[1], p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("write to server");
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

std::string ServeSession::read_line() {
  for (;;) {
    const std::size_t nl = pending_.find('\n');
    if (nl != std::string::npos) {
      std::string line = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      return line;
    }
    char buf[1 << 16];
    const ssize_t n = ::read(from_server_[0], buf, sizeof(buf));
    if (n == 0) throw std::runtime_error("serve: server closed its output");
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("read from server");
    }
    pending_.append(buf, static_cast<std::size_t>(n));
  }
}

std::string ServeSession::exchange(const std::string& request) {
  write_all(request);
  std::string response;
  for (;;) {
    std::string line = read_line();
    if (line == "END") return response;
    response += line;
    response += '\n';
  }
}

void ServeSession::finish() {
  if (finished_) return;
  finished_ = true;
  std::exception_ptr client_error;
  try {
    write_all("QUIT\n");
    while (read_line() != "BYE") {
    }
  } catch (...) {
    client_error = std::current_exception();
  }
  close_fd(to_server_[1]);  // EOF ends the server loop if QUIT did not
  if (server_.joinable()) server_.join();
  close_fd(to_server_[0]);
  close_fd(from_server_[0]);
  close_fd(from_server_[1]);
  if (server_error_) std::rethrow_exception(server_error_);
  if (client_error) std::rethrow_exception(client_error);
}

}  // namespace perfbench
