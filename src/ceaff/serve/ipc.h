#ifndef CEAFF_SERVE_IPC_H_
#define CEAFF_SERVE_IPC_H_

#include <cstdint>
#include <string>

#include "ceaff/common/bin_codec.h"
#include "ceaff/common/statusor.h"
#include "ceaff/serve/service_types.h"

namespace ceaff::serve {

/// Wire protocol between the router/supervisor and its shard workers: a
/// stream of frames over a connected AF_UNIX SOCK_STREAM socketpair.
///
///   [u32 length][u32 crc32][body...]        (little-endian, host order —
///                                            both ends are always the same
///                                            machine, fork() children)
///
/// `length` counts the body bytes; `crc32` covers exactly the body. The
/// body's first byte is the IpcType tag, the rest is the type-specific
/// payload encoded with common/bin_codec.h's BinWriter/BinReader. Error
/// mapping on the receive side, chosen so the router's failure matrix falls
/// out of the status code alone:
///
///   kUnavailable       peer closed / EPIPE / ECONNRESET — the shard died
///   kDeadlineExceeded  poll timed out — the shard is hung (or just slow)
///   kDataLoss          CRC mismatch or insane frame length — the reply is
///                      corrupt; the shard process may be fine but cannot
///                      be trusted mid-stream (framing is lost)
struct IpcMessage;

/// Message tags. The request/response pairing is by convention (each pipe
/// carries one request at a time, strictly ping-pong), not by sequence
/// numbers — the router never pipelines to a single shard.
enum class IpcType : uint8_t {
  kPing = 1,          // router -> worker: are you up? body empty
  kPong = 2,          // worker -> router: [u64 begin][u64 end][u64 generation]
  kTopKRequest = 3,   // [str query][u64 k][u8 allow_structural][u64 deadline_ms]
  kTopKResponse = 4,  // [u8 ok][Status | TopKResult]
  kPairRequest = 5,   // [str source_name]
  kPairResponse = 6,  // [u8 ok][Status | PairAnswer]
  kShutdown = 7,      // router -> worker: exit cleanly; no reply
  kDrain = 8,         // router -> worker: finish up, ack, then exit. Used by
                      // the rolling reload so a replica leaves the fleet at a
                      // frame boundary instead of mid-reply.
  kDrainAck = 9,      // worker -> router: body empty; the worker exits right
                      // after this frame is on the wire
};

struct IpcMessage {
  IpcType type = IpcType::kPing;
  std::string payload;  // body minus the tag byte
};

/// One end of a framed message pipe. Move-only owner of the socket fd.
class MessagePipe {
 public:
  MessagePipe() = default;
  /// Takes ownership of a connected stream-socket fd.
  explicit MessagePipe(int fd) : fd_(fd) {}
  ~MessagePipe() { Close(); }
  MessagePipe(MessagePipe&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  MessagePipe& operator=(MessagePipe&& other) noexcept;
  MessagePipe(const MessagePipe&) = delete;
  MessagePipe& operator=(const MessagePipe&) = delete;

  /// Creates a connected socketpair; `parent` and `child` each own one end.
  static Status CreatePair(MessagePipe* parent, MessagePipe* child);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  /// Writes one complete frame. kUnavailable when the peer is gone (EPIPE /
  /// ECONNRESET), kInvalidArgument on an oversized payload. The failpoint
  /// site "shard.ipc.corrupt_reply", when armed with an error action,
  /// deliberately flips the frame's CRC before sending — the corrupt-reply
  /// row of the router's failure matrix.
  Status Send(IpcType type, const std::string& payload);

  /// Reads one complete frame. `timeout_ms` < 0 blocks indefinitely; the
  /// timeout covers the whole frame, not each byte. See the header comment
  /// for the error mapping.
  StatusOr<IpcMessage> Recv(int64_t timeout_ms);

 private:
  int fd_ = -1;
};

/// Frames larger than this are rejected on both sides (kInvalidArgument on
/// send, kDataLoss on receive — an insane declared length means framing is
/// lost). Generous: the largest real message is a TopKResponse, k
/// candidates x (name + 4 floats).
inline constexpr uint32_t kMaxIpcFrameBytes = 16u << 20;

/// Payload codecs for the composite messages. Encode never fails; Decode
/// returns kDataLoss on a malformed payload (the frame CRC passed, so a
/// decode failure means the two ends disagree on the schema).
std::string EncodeStatusPayload(const Status& status);
/// Fills `*out` from the cursor; returns kDataLoss (and leaves `*out`
/// untouched) on a malformed payload.
Status DecodeStatusPayload(BinReader* reader, Status* out);

std::string EncodeTopKResult(const TopKResult& result);
StatusOr<TopKResult> DecodeTopKResult(BinReader* reader);

std::string EncodePairAnswer(const PairAnswer& answer);
StatusOr<PairAnswer> DecodePairAnswer(BinReader* reader);

/// Convenience wrappers for the `[u8 ok][Status | T]` response bodies.
std::string EncodeTopKResponse(const StatusOr<TopKResult>& result);
StatusOr<TopKResult> DecodeTopKResponse(const std::string& payload);
std::string EncodePairResponse(const StatusOr<PairAnswer>& answer);
StatusOr<PairAnswer> DecodePairResponse(const std::string& payload);

}  // namespace ceaff::serve

#endif  // CEAFF_SERVE_IPC_H_
