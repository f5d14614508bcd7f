#include "ceaff/serve/ipc.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>

#include "ceaff/common/crc32.h"
#include "ceaff/common/failpoint.h"
#include "ceaff/common/string_util.h"

namespace ceaff::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Encoded size of a candidate with an empty name, for BinReader::Count.
constexpr size_t kCandidateBytes = 2 * sizeof(uint32_t) + 4 * sizeof(float);

int64_t MillisUntil(Clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                               Clock::now())
      .count();
}

/// send() the whole buffer, riding out EINTR and short writes.
/// MSG_NOSIGNAL: a dead peer must surface as EPIPE, never SIGPIPE — the
/// router's whole job is to outlive its workers.
Status SendAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable("ipc peer closed the pipe");
      }
      return Status::IOError(StrFormat("ipc send failed: %s",
                                       std::strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// recv() exactly `len` bytes before `deadline` (or forever when
/// `block_forever`). The poll/read loop re-arms after EINTR and short
/// reads; a timeout anywhere inside the frame is the shard-hang signal.
Status RecvAll(int fd, char* data, size_t len, bool block_forever,
               Clock::time_point deadline) {
  size_t off = 0;
  while (off < len) {
    struct pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    int wait_ms = -1;
    if (!block_forever) {
      const int64_t remaining = MillisUntil(deadline);
      if (remaining <= 0) {
        return Status::DeadlineExceeded("ipc recv timed out");
      }
      wait_ms = static_cast<int>(remaining);
    }
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("ipc poll failed: %s",
                                       std::strerror(errno)));
    }
    if (ready == 0) {
      return Status::DeadlineExceeded("ipc recv timed out");
    }
    const ssize_t n = ::recv(fd, data + off, len - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        return Status::Unavailable("ipc peer closed the pipe");
      }
      return Status::IOError(StrFormat("ipc recv failed: %s",
                                       std::strerror(errno)));
    }
    if (n == 0) {
      return Status::Unavailable("ipc peer closed the pipe");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

MessagePipe& MessagePipe::operator=(MessagePipe&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status MessagePipe::CreatePair(MessagePipe* parent, MessagePipe* child) {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IOError(StrFormat("socketpair failed: %s",
                                     std::strerror(errno)));
  }
  *parent = MessagePipe(fds[0]);
  *child = MessagePipe(fds[1]);
  return Status::OK();
}

void MessagePipe::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status MessagePipe::Send(IpcType type, const std::string& payload) {
  if (!valid()) return Status::FailedPrecondition("ipc pipe is closed");
  if (payload.size() + 1 > kMaxIpcFrameBytes) {
    return Status::InvalidArgument(
        StrFormat("ipc payload of %zu bytes exceeds the %u-byte frame cap",
                  payload.size(), kMaxIpcFrameBytes));
  }
  const char tag = static_cast<char>(type);
  Crc32 crc;
  crc.Update(&tag, 1);
  crc.Update(payload.data(), payload.size());
  uint32_t checksum = crc.value();
  // The corrupt-reply drill: an armed error action here mangles the CRC so
  // the receiver sees a frame whose bytes arrived intact but do not hash —
  // exactly what a buffer-management bug in a worker would produce.
  if (!failpoint::Hit("shard.ipc.corrupt_reply").ok()) {
    checksum ^= 0xDEADBEEFu;
  }
  BinWriter w;
  w.U32(static_cast<uint32_t>(payload.size() + 1));
  w.U32(checksum);
  w.Bytes(&tag, 1);
  w.Bytes(payload.data(), payload.size());
  const std::string frame = w.Take();
  return SendAll(fd_, frame.data(), frame.size());
}

StatusOr<IpcMessage> MessagePipe::Recv(int64_t timeout_ms) {
  if (!valid()) return Status::FailedPrecondition("ipc pipe is closed");
  const bool block_forever = timeout_ms < 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(block_forever ? 0 : timeout_ms);

  char header[8];
  CEAFF_RETURN_IF_ERROR(
      RecvAll(fd_, header, sizeof header, block_forever, deadline));
  uint32_t body_len = 0;
  uint32_t checksum = 0;
  BinReader header_reader(std::string_view(header, sizeof header));
  header_reader.U32(&body_len);  // the 8 bytes are all there
  header_reader.U32(&checksum);
  if (body_len == 0 || body_len > kMaxIpcFrameBytes) {
    // A zero or absurd length means the stream is not at a frame boundary;
    // nothing downstream of this byte can be trusted.
    return Status::DataLoss(
        StrFormat("ipc frame declares %u body bytes: framing lost",
                  body_len));
  }
  std::string body(body_len, '\0');
  CEAFF_RETURN_IF_ERROR(
      RecvAll(fd_, body.data(), body.size(), block_forever, deadline));
  if (Crc32Of(body.data(), body.size()) != checksum) {
    return Status::DataLoss("ipc frame checksum mismatch");
  }
  IpcMessage message;
  message.type = static_cast<IpcType>(static_cast<uint8_t>(body[0]));
  message.payload.assign(body, 1, body.size() - 1);
  return message;
}

std::string EncodeStatusPayload(const Status& status) {
  BinWriter w;
  w.U32(static_cast<uint32_t>(status.code()));
  w.Str(status.message());
  return w.Take();
}

Status DecodeStatusPayload(BinReader* reader, Status* out) {
  uint32_t code = 0;
  std::string message;
  if (!reader->U32(&code) || !reader->Str(&message)) {
    return Status::DataLoss("malformed ipc status payload");
  }
  if (code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    return Status::DataLoss("ipc status payload carries an unknown code");
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

std::string EncodeTopKResult(const TopKResult& result) {
  BinWriter w;
  w.Str(result.query);
  w.Bool(result.structural_used);
  w.U8(static_cast<uint8_t>(result.tier));
  w.Bool(result.degraded);
  w.Bool(result.ann_used);
  w.U32(result.ann_probes);
  w.U32(result.ann_shortlist);
  w.U64(result.generation);
  w.U32(static_cast<uint32_t>(result.candidates.size()));
  for (const Candidate& c : result.candidates) {
    w.U32(c.target);
    w.Str(c.target_name);
    w.F32(c.combined);
    w.F32(c.string_score);
    w.F32(c.semantic_score);
    w.F32(c.structural_score);
  }
  return w.Take();
}

StatusOr<TopKResult> DecodeTopKResult(BinReader* reader) {
  TopKResult result;
  uint8_t tier = 0;
  uint32_t count = 0;
  if (!reader->Str(&result.query) || !reader->Bool(&result.structural_used) ||
      !reader->U8(&tier) || !reader->Bool(&result.degraded) ||
      !reader->Bool(&result.ann_used) || !reader->U32(&result.ann_probes) ||
      !reader->U32(&result.ann_shortlist) || !reader->U64(&result.generation) ||
      !reader->Count32(&count, kCandidateBytes)) {
    return Status::DataLoss("malformed ipc topk payload");
  }
  if (tier > static_cast<uint8_t>(ServiceTier::kPairOnly)) {
    return Status::DataLoss("ipc topk payload carries an unknown tier");
  }
  result.tier = static_cast<ServiceTier>(tier);
  result.candidates.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Candidate c;
    if (!reader->U32(&c.target) || !reader->Str(&c.target_name) ||
        !reader->F32(&c.combined) || !reader->F32(&c.string_score) ||
        !reader->F32(&c.semantic_score) || !reader->F32(&c.structural_score)) {
      return Status::DataLoss("malformed ipc topk candidate");
    }
    result.candidates.push_back(std::move(c));
  }
  return result;
}

std::string EncodePairAnswer(const PairAnswer& answer) {
  BinWriter w;
  w.U32(answer.source);
  w.U32(answer.target);
  w.Str(answer.source_name);
  w.Str(answer.target_name);
  w.F32(answer.score);
  return w.Take();
}

StatusOr<PairAnswer> DecodePairAnswer(BinReader* reader) {
  PairAnswer answer;
  if (!reader->U32(&answer.source) || !reader->U32(&answer.target) ||
      !reader->Str(&answer.source_name) || !reader->Str(&answer.target_name) ||
      !reader->F32(&answer.score)) {
    return Status::DataLoss("malformed ipc pair payload");
  }
  return answer;
}

namespace {

template <typename T>
std::string EncodeResponse(const StatusOr<T>& value,
                           std::string (*encode)(const T&)) {
  std::string out(1, value.ok() ? '\1' : '\0');
  out += value.ok() ? encode(value.value())
                    : EncodeStatusPayload(value.status());
  return out;
}

template <typename T>
StatusOr<T> DecodeResponse(const std::string& payload,
                           StatusOr<T> (*decode)(BinReader*)) {
  BinReader reader(payload);
  bool ok = false;
  if (!reader.Bool(&ok)) {
    return Status::DataLoss("malformed ipc response payload");
  }
  if (ok) {
    StatusOr<T> value = decode(&reader);
    if (value.ok() && !reader.Done()) {
      return Status::DataLoss("trailing bytes after ipc response payload");
    }
    return value;
  }
  Status carried = Status::OK();
  CEAFF_RETURN_IF_ERROR(DecodeStatusPayload(&reader, &carried));
  if (!reader.Done()) {
    return Status::DataLoss("trailing bytes after ipc error payload");
  }
  if (carried.ok()) {
    // ok=0 must carry a real error; a smuggled OK would vanish upstream.
    return Status::DataLoss("ipc error response carries an OK status");
  }
  return carried;
}

}  // namespace

std::string EncodeTopKResponse(const StatusOr<TopKResult>& result) {
  return EncodeResponse<TopKResult>(result, EncodeTopKResult);
}

StatusOr<TopKResult> DecodeTopKResponse(const std::string& payload) {
  return DecodeResponse<TopKResult>(payload, DecodeTopKResult);
}

std::string EncodePairResponse(const StatusOr<PairAnswer>& answer) {
  return EncodeResponse<PairAnswer>(answer, EncodePairAnswer);
}

StatusOr<PairAnswer> DecodePairResponse(const std::string& payload) {
  return DecodeResponse<PairAnswer>(payload, DecodePairAnswer);
}

}  // namespace ceaff::serve
